module Trace_io = Pgraph.Trace_io

type assignment = { shard_id : int; shards : int; seed : int; path : string }

let make ~base ~seed ~shards ~shard_id =
  if shards < 1 || shard_id < 0 || shard_id >= shards then
    invalid_arg
      (Printf.sprintf "Shard.make: shard_id %d out of range for %d shards" shard_id shards);
  { shard_id; shards; seed; path = Robust.Durable.shard_path ~base ~shard_id }

(* splitmix64 finalizer — the partition must be identical across
   processes and builds, so no [Hashtbl.hash]. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let derive_seed ~seed ~shard_id =
  Int64.to_int
    (Int64.logand
       (mix64 (Int64.of_int (seed lxor ((shard_id + 1) * 0x9e3779b9))))
       0x3fffffffffffffffL)

let hash_key ~seed key =
  let h = ref (mix64 (Int64.of_int (seed lxor 0x5851f42d))) in
  String.iter
    (fun c ->
      h := mix64 (Int64.add (Int64.mul !h 0x100000001b3L) (Int64.of_int (Char.code c))))
    key;
  !h

let owner ~seed ~shards key =
  let shards = max 1 shards in
  Int64.to_int (Int64.rem (Int64.shift_right_logical (hash_key ~seed key) 1)
                  (Int64.of_int shards))

let root_filter a prim =
  owner ~seed:a.seed ~shards:a.shards (Trace_io.prim_to_string prim) = a.shard_id

(* --- Merging --------------------------------------------------------------- *)

(* Quarantine-wins: a quarantine is a deterministic refusal of the
   candidate (admission verdict, or an exhausted retry schedule under
   that shard's fault stream), so it survives the merge; the shards'
   transient disagreements were already retried inside each shard.
   Clean/clean conflicts keep the entry with the best reward, whole (two
   operators can share a signature and still score differently): a NaN
   never wins and a tie keeps [a].  Deterministic in the order of the
   input lists. *)
let merge_pair (a : Checkpoint.entry) (b : Checkpoint.entry) =
  let b_wins =
    match (a.Checkpoint.quarantined, b.Checkpoint.quarantined) with
    | true, _ -> false
    | false, true -> true
    | false, false ->
        (not (Float.is_nan b.Checkpoint.reward))
        && (Float.is_nan a.Checkpoint.reward || b.Checkpoint.reward > a.Checkpoint.reward)
  in
  { (if b_wins then b else a) with Checkpoint.visits = a.Checkpoint.visits + b.Checkpoint.visits }

let merge_entries lists =
  let tbl : (string, Checkpoint.entry) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (e : Checkpoint.entry) ->
         match Hashtbl.find_opt tbl e.Checkpoint.signature with
         | None -> Hashtbl.add tbl e.Checkpoint.signature e
         | Some prev -> Hashtbl.replace tbl e.Checkpoint.signature (merge_pair prev e)))
    lists;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
  |> List.sort (fun (a : Checkpoint.entry) b ->
         compare a.Checkpoint.signature b.Checkpoint.signature)

let load_and_merge ~base ~shards =
  Robust.Durable.merge_shards Checkpoint.codec ~merge:merge_entries ~base ~shards

let rank entries =
  let key r = if Float.is_nan r then neg_infinity else r in
  List.sort
    (fun (a : Checkpoint.entry) (b : Checkpoint.entry) ->
      match compare a.Checkpoint.quarantined b.Checkpoint.quarantined with
      | 0 -> (
          match compare (key b.Checkpoint.reward) (key a.Checkpoint.reward) with
          | 0 -> compare a.Checkpoint.signature b.Checkpoint.signature
          | c -> c)
      | c -> c)
    entries

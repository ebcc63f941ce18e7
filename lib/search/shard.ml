module Trace_io = Pgraph.Trace_io

type assignment = { shard_id : int; shards : int; seed : int; path : string }

let checkpoint_path ~base ~shard_id = Printf.sprintf "%s.shard%d" base shard_id

let make ~base ~seed ~shards ~shard_id =
  if shards < 1 || shard_id < 0 || shard_id >= shards then
    invalid_arg
      (Printf.sprintf "Shard.make: shard_id %d out of range for %d shards" shard_id shards);
  { shard_id; shards; seed; path = checkpoint_path ~base ~shard_id }

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

(* NaN-safe best: a NaN never wins (or poisons) a comparison. *)
let fmax a b = if Float.is_nan b then a else if Float.is_nan a then b else Float.max a b

(* Quarantine-wins: a quarantine is a deterministic refusal of the
   candidate (admission verdict, or an exhausted retry schedule under
   that shard's fault stream), so it survives the merge; the shards'
   transient disagreements were already retried inside each shard.
   Clean/clean conflicts keep the best reward, as in root-parallel
   merging.  Deterministic in the order of the input lists. *)
let merge_pair (a : Checkpoint.entry) (b : Checkpoint.entry) =
  let visits = a.Checkpoint.visits + b.Checkpoint.visits in
  match (a.Checkpoint.quarantined, b.Checkpoint.quarantined) with
  | true, false -> { a with Checkpoint.visits }
  | false, true -> { b with Checkpoint.visits }
  | true, true -> { a with Checkpoint.visits }
  | false, false ->
      { a with Checkpoint.visits; reward = fmax a.Checkpoint.reward b.Checkpoint.reward }

let merge_entries lists =
  let tbl : (string, Checkpoint.entry) Hashtbl.t = Hashtbl.create 64 in
  let conflicts = ref 0 in
  List.iter
    (List.iter (fun (e : Checkpoint.entry) ->
         match Hashtbl.find_opt tbl e.Checkpoint.signature with
         | None -> Hashtbl.add tbl e.Checkpoint.signature e
         | Some prev ->
             incr conflicts;
             Hashtbl.replace tbl e.Checkpoint.signature (merge_pair prev e)))
    lists;
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
    |> List.sort (fun (a : Checkpoint.entry) b ->
           compare a.Checkpoint.signature b.Checkpoint.signature)
  in
  (entries, !conflicts)

type merge_report = {
  mr_entries : Checkpoint.entry list;
  mr_loaded : int list;
  mr_missing : int list;
  mr_quarantined : (int * Checkpoint.error) list;
  mr_conflicts : int;
}

let load_and_merge assignments =
  let sh =
    Robust.Durable.load_shards Checkpoint.codec
      (List.map (fun a -> (a.shard_id, a.path)) assignments)
  in
  let entries, conflicts = merge_entries (List.map snd sh.Robust.Durable.sh_loaded) in
  {
    mr_entries = entries;
    mr_loaded = List.map fst sh.Robust.Durable.sh_loaded;
    mr_missing = sh.Robust.Durable.sh_missing;
    mr_quarantined = sh.Robust.Durable.sh_quarantined;
    mr_conflicts = conflicts;
  }

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

type entry = {
  e_key : string;
  e_verdict : string;
  e_flops : int;
  e_params : int;
  e_elements : int;
  e_checksum : float;
  e_cold_seconds : float;
  e_spec_seconds : float;
      (* specialized-kernel cold time; negative when the evaluation did
         not run a specialized kernel *)
}

(* LRU bookkeeping: a monotonically increasing use-stamp per entry;
   eviction scans for the minimum.  O(capacity) per eviction is fine at
   the capacities a daemon runs (hundreds to a few thousand entries)
   and keeps the structure a single hashtable. *)
type slot = { s_entry : entry; mutable s_stamp : int }

type t = {
  mutex : Mutex.t;
  table : (string, slot) Hashtbl.t;
  cap : int;
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable evict_count : int;
  writer : entry Robust.Durable.writer option;
}

(* --- Snapshot format ------------------------------------------------------- *)

type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

let render buf e =
  (* The key travels percent-encoded: signatures contain characters the
     space-separated line format cannot carry raw. *)
  let add = Buffer.add_string buf in
  let add_float f = Printf.bprintf buf "%h" f in
  add "entry: key ";
  add (Protocol.encode e.e_key);
  add " verdict ";
  add e.e_verdict;
  add " flops ";
  add (string_of_int e.e_flops);
  add " params ";
  add (string_of_int e.e_params);
  add " elements ";
  add (string_of_int e.e_elements);
  add " checksum ";
  add_float e.e_checksum;
  add " cold ";
  add_float e.e_cold_seconds;
  add " spec ";
  add_float e.e_spec_seconds;
  Buffer.add_char buf '\n'

let parse line _continuation =
  let bad () = Error (Corrupt (Printf.sprintf "bad entry line %S" line)) in
  (* [spec] is optional for backward compatibility: snapshots written
     before specialization existed parse with [e_spec_seconds = -1.0]
     (not specialized). *)
  let build k v f p el c cold spec =
    match
      ( Protocol.decode k,
        int_of_string_opt f,
        int_of_string_opt p,
        int_of_string_opt el,
        float_of_string_opt c,
        float_of_string_opt cold,
        spec )
    with
    | Ok key, Some flops, Some params, Some elements, Some checksum, Some cold_s, Some spec_s
      ->
        Ok
          {
            e_key = key;
            e_verdict = v;
            e_flops = flops;
            e_params = params;
            e_elements = elements;
            e_checksum = checksum;
            e_cold_seconds = cold_s;
            e_spec_seconds = spec_s;
          }
    | _ -> bad ()
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "entry:"; "key"; k; "verdict"; v; "flops"; f; "params"; p; "elements"; el;
      "checksum"; c; "cold"; cold ] ->
      build k v f p el c cold (Some (-1.0))
  | [ "entry:"; "key"; k; "verdict"; v; "flops"; f; "params"; p; "elements"; el;
      "checksum"; c; "cold"; cold; "spec"; spec ] ->
      build k v f p el c cold (float_of_string_opt spec)
  | _ -> bad ()

let codec =
  Robust.Durable.codec ~header:"syno-serve-cache v1" ~noun:"cache snapshot" ~render ~parse ()

let make ?(capacity = 1024) ?backing ?(every = 16) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    cap = max 1 capacity;
    clock = 0;
    hit_count = 0;
    miss_count = 0;
    evict_count = 0;
    writer = Option.map (fun path -> Robust.Durable.writer codec ~path ~every) backing;
  }

let create ?capacity () = make ?capacity ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let size t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)
let evictions t = locked t (fun () -> t.evict_count)
let writes t = Option.fold ~none:0 ~some:Robust.Durable.writes t.writer

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some slot ->
          t.clock <- t.clock + 1;
          slot.s_stamp <- t.clock;
          t.hit_count <- t.hit_count + 1;
          Some slot.s_entry
      | None ->
          t.miss_count <- t.miss_count + 1;
          None)

let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best <= slot.s_stamp -> acc
        | _ -> Some (key, slot.s_stamp))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evict_count <- t.evict_count + 1
  | None -> ()

(* Least-recent-first, so a loader replaying [put]s ends with the same
   recency order the snapshot was taken at. *)
let snapshot_locked t =
  Hashtbl.fold (fun _ slot acc -> slot :: acc) t.table []
  |> List.sort (fun a b -> compare a.s_stamp b.s_stamp)
  |> List.map (fun s -> s.s_entry)

let string_of_error = Robust.Durable.string_of_error codec
let save ~path t = Robust.Durable.save codec ~path (locked t (fun () -> snapshot_locked t))

let put_locked t e =
  t.clock <- t.clock + 1;
  (match Hashtbl.find_opt t.table e.e_key with
  | Some _ -> Hashtbl.replace t.table e.e_key { s_entry = e; s_stamp = t.clock }
  | None ->
      if Hashtbl.length t.table >= t.cap then evict_lru_locked t;
      Hashtbl.add t.table e.e_key { s_entry = e; s_stamp = t.clock })

(* The snapshot is taken under the lock and written after it is
   released, on the calling thread: [find] and the other workers wait
   only for the fold and sort, never for the render and the fsync. *)
let snapshot_due t step = Option.bind t.writer (fun w -> step w (fun () -> snapshot_locked t))

let put t e =
  Robust.Durable.update t.mutex (fun () ->
      put_locked t e;
      ((), snapshot_due t Robust.Durable.note))

let flush t = Robust.Durable.update t.mutex (fun () -> ((), snapshot_due t Robust.Durable.flush))

let of_entries ?capacity ?backing ?every entries =
  let t = make ?capacity ?backing ?every () in
  List.iter (put_locked t) entries;
  t

let of_string_result ?capacity text =
  Result.map (of_entries ?capacity) (Robust.Durable.of_string codec text)

type open_report = Robust.Durable.open_report = {
  or_loaded : int;
  or_quarantined : (string * error) option;
}

let open_file ?capacity ?every path =
  let entries, report = Robust.Durable.open_file codec path in
  let t = of_entries ?capacity ~backing:path ?every entries in
  (* Restoring a snapshot larger than [capacity] is not eviction traffic. *)
  t.evict_count <- 0;
  (t, { report with or_loaded = Hashtbl.length t.table })

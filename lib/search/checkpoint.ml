module Graph = Pgraph.Graph
module Trace_io = Pgraph.Trace_io

let ( let* ) r f = Result.bind r f

type entry = {
  signature : string;
  operator : Graph.operator;
  reward : float;
  visits : int;
  quarantined : bool;
  reason : string option;
}

(* --- Snapshot files -------------------------------------------------------- *)

let header = "syno-checkpoint v1"

(* Reasons are guard-kind labels, but keep the header parsable even if
   a caller passes free text: the field must stay a single token. *)
let sanitize_reason r =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' || c = '\r' then '-' else c) r

let render buf e =
  Buffer.add_string buf
    (Printf.sprintf "entry: reward %h visits %d quarantined %b%s\n" e.reward e.visits
       e.quarantined
       (match e.reason with
       | None -> ""
       | Some r -> " reason " ^ sanitize_reason r));
  Buffer.add_string buf (Trace_io.to_string e.operator)

type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

(* The [reason] suffix is optional so v1 snapshots written before the
   field existed still load. *)
let parse_entry_header line =
  let bad () = Error (Corrupt (Printf.sprintf "bad entry header %S" line)) in
  match String.split_on_char ' ' (String.trim line) with
  | "entry:" :: "reward" :: r :: "visits" :: v :: "quarantined" :: q :: rest -> (
      match (float_of_string_opt r, int_of_string_opt v, bool_of_string_opt q) with
      | Some r, Some v, Some q -> (
          match rest with
          | [] -> Ok (r, v, q, None)
          | [ "reason"; reason ] -> Ok (r, v, q, Some reason)
          | _ -> bad ())
      | _ -> bad ())
  | _ -> bad ()

let parse head block =
  let* reward, visits, quarantined, reason = parse_entry_header head in
  (* [allow_strided]: a snapshot records whatever the search evaluated —
     quality filtering happened at enumeration time, and resume must
     accept its own history. *)
  let* operator =
    Result.map_error
      (fun msg -> Corrupt msg)
      (Trace_io.of_string ~allow_strided:true (String.concat "\n" block))
  in
  let signature = Graph.operator_signature operator in
  Ok { signature; operator; reward; visits; quarantined; reason }

let codec =
  Robust.Durable.codec ~header ~noun:"checkpoint" ~render ~parse
    ~order:(fun a b -> compare a.signature b.signature)
    ()

let save ~path entries = Robust.Durable.save codec ~path entries
let string_of_error = Robust.Durable.string_of_error codec
let load_result ~path = Robust.Durable.load codec ~path
let load ~path = Result.map_error string_of_error (load_result ~path)

(* --- Cadence-driven sink --------------------------------------------------- *)

type sink = {
  sk_mutex : Mutex.t;
  sk_table : (string, entry) Hashtbl.t;
  sk_writer : entry Robust.Durable.writer;
}

let sink ~path ?(every = 50) () =
  {
    sk_mutex = Mutex.create ();
    sk_table = Hashtbl.create 64;
    sk_writer = Robust.Durable.writer codec ~path ~every;
  }

let snapshot_locked s () =
  Hashtbl.fold (fun _ e acc -> e :: acc) s.sk_table []
  |> List.sort (fun a b -> compare a.signature b.signature)

let locked s f =
  Mutex.lock s.sk_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.sk_mutex) f

(* Seed the table with previously persisted entries without counting
   them toward the write cadence: a resumed search must rewrite its
   full history, not just the entries it evaluated after the resume —
   otherwise a second kill/resume cycle silently shrinks the memo. *)
let preload s entries =
  locked s (fun () ->
      List.iter
        (fun e ->
          if not (Hashtbl.mem s.sk_table e.signature) then Hashtbl.add s.sk_table e.signature e)
        entries)

(* The snapshot is taken under the lock and written after it is
   released, on the calling thread. *)
let note s e =
  Robust.Durable.update s.sk_mutex (fun () ->
      Hashtbl.replace s.sk_table e.signature e;
      ((), Robust.Durable.note s.sk_writer (snapshot_locked s)))

let flush s =
  Robust.Durable.update s.sk_mutex (fun () ->
      ((), Robust.Durable.flush s.sk_writer (snapshot_locked s)))

let writes s = Robust.Durable.writes s.sk_writer

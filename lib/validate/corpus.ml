module Valuation = Shape.Valuation
module Var = Shape.Var
module Graph = Pgraph.Graph
module Trace_io = Pgraph.Trace_io
module Guard = Robust.Guard

let ( let* ) r f = Result.bind r f

type origin = Differential | Static

let origin_label = function Differential -> "differential" | Static -> "static"

let origin_of_label = function
  | "differential" -> Some Differential
  | "static" -> Some Static
  | _ -> None

type entry = {
  ce_operator : Graph.operator;
  ce_signature : string;
  ce_fingerprint : string;
  ce_origin : origin;
  ce_valuation : Valuation.t;
  ce_seed : int;
  ce_tolerance : float;
  ce_backend : Differential.backend option;
  ce_detail : string;
  ce_abs_err : float;
  ce_fail : (int * float * float) option;
}

(* The structural fingerprint: the sorted multiset of primitive
   renderings.  Two operators share a fingerprint exactly when their
   traces apply the same primitives (possibly in a different order) —
   the "family" a counterexample generalizes over.  Signatures imply
   fingerprints, never the reverse. *)
let fingerprint (op : Graph.operator) =
  op.Graph.op_trace
  |> List.map Trace_io.prim_to_string
  |> List.sort compare
  |> String.concat ";"

let valuation_tokens v =
  Valuation.bindings v
  |> List.map (fun (var, n) ->
         let prefix = if Var.is_coefficient var then "'" else "" in
         Printf.sprintf "%s%s=%d" prefix (Var.name var) n)
  |> List.sort compare

(* Identity for dedup: everything that determines what replay would
   execute.  Detail text and error magnitudes are presentation only. *)
let ident e =
  String.concat "|"
    [
      e.ce_signature;
      origin_label e.ce_origin;
      String.concat "," (valuation_tokens e.ce_valuation);
      string_of_int e.ce_seed;
      (match e.ce_backend with None -> "-" | Some b -> Differential.backend_label b);
    ]

let sanitize_line s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

(* --- Distillation ----------------------------------------------------------- *)

let of_differential ~tolerance op (f : Differential.failure) =
  {
    ce_operator = op;
    ce_signature = Graph.operator_signature op;
    ce_fingerprint = fingerprint op;
    ce_origin = Differential;
    ce_valuation = f.Differential.fl_valuation;
    ce_seed = f.Differential.fl_seed;
    ce_tolerance = tolerance;
    ce_backend = f.Differential.fl_backend;
    ce_detail = sanitize_line (Guard.kind_detail f.Differential.fl_kind);
    ce_abs_err = f.Differential.fl_abs_err;
    ce_fail =
      (match f.Differential.fl_index with
      | None -> None
      | Some i ->
          Some
            ( i,
              Option.value f.Differential.fl_expected ~default:Float.nan,
              Option.value f.Differential.fl_got ~default:Float.nan ));
  }

let of_static op valuation (d : Analysis.Verify.diagnostic) =
  {
    ce_operator = op;
    ce_signature = Graph.operator_signature op;
    ce_fingerprint = fingerprint op;
    ce_origin = Static;
    ce_valuation = valuation;
    ce_seed = 0;
    ce_tolerance = 0.0;
    ce_backend = None;
    ce_detail = sanitize_line (Analysis.Verify.diagnostic_to_string d);
    ce_abs_err = 0.0;
    ce_fail = None;
  }

(* --- Snapshot files ---------------------------------------------------------- *)

let render buf e =
  Buffer.add_string buf
    (Printf.sprintf "entry: origin %s seed %d tolerance %h abs %h%s\n"
       (origin_label e.ce_origin) e.ce_seed e.ce_tolerance e.ce_abs_err
       (match e.ce_backend with
       | None -> ""
       | Some b -> " backend " ^ Differential.backend_label b));
  (match e.ce_fail with
  | None -> ()
  | Some (i, expected, got) ->
      Buffer.add_string buf (Printf.sprintf "fail: %d %h %h\n" i expected got));
  Buffer.add_string buf
    (Printf.sprintf "valuation: %s\n" (String.concat " " (valuation_tokens e.ce_valuation)));
  Buffer.add_string buf (Printf.sprintf "detail: %s\n" (sanitize_line e.ce_detail));
  Buffer.add_string buf (Trace_io.to_string e.ce_operator)

type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

let parse_entry_header line =
  let bad () = Error (Corrupt (Printf.sprintf "bad entry header %S" line)) in
  match String.split_on_char ' ' (String.trim line) with
  | "entry:" :: "origin" :: o :: "seed" :: s :: "tolerance" :: t :: "abs" :: a :: rest -> (
      match
        (origin_of_label o, int_of_string_opt s, float_of_string_opt t, float_of_string_opt a)
      with
      | Some origin, Some seed, Some tolerance, Some abs -> (
          match rest with
          | [] -> Ok (origin, seed, tolerance, abs, None)
          | [ "backend"; b ] -> (
              match Differential.backend_of_label b with
              | Some backend -> Ok (origin, seed, tolerance, abs, Some backend)
              | None -> bad ())
          | _ -> bad ())
      | _ -> bad ())
  | _ -> bad ()

let parse_fail line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "fail:"; i; e; g ] -> (
      match (int_of_string_opt i, float_of_string_opt e, float_of_string_opt g) with
      | Some i, Some e, Some g -> Ok (Some (i, e, g))
      | _ -> Error (Corrupt (Printf.sprintf "bad fail line %S" line)))
  | _ -> Error (Corrupt (Printf.sprintf "bad fail line %S" line))

let parse_valuation line =
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun t -> t <> "" && t <> "valuation:")
  in
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match String.index_opt tok '=' with
      | None -> Error (Corrupt (Printf.sprintf "bad valuation binding %S" tok))
      | Some i -> (
          let name = String.sub tok 0 i in
          let value = String.sub tok (i + 1) (String.length tok - i - 1) in
          let var =
            if String.length name > 1 && name.[0] = '\'' then
              Some (Var.coefficient (String.sub name 1 (String.length name - 1)))
            else if String.length name > 0 then Some (Var.primary name)
            else None
          in
          match (var, int_of_string_opt value) with
          | Some var, Some n -> Ok ((var, n) :: acc)
          | _ -> Error (Corrupt (Printf.sprintf "bad valuation binding %S" tok))))
    (Ok []) tokens
  |> Result.map (fun bindings -> Valuation.of_list (List.rev bindings))

let starts_with ~prefix line =
  let line = String.trim line in
  String.length line >= String.length prefix && String.sub line 0 (String.length prefix) = prefix

let parse head block =
  let* origin, seed, tolerance, abs, backend = parse_entry_header head in
  let* fail =
    match List.find_opt (starts_with ~prefix:"fail:") block with
    | None -> Ok None
    | Some line -> parse_fail line
  in
  let* valuation =
    match List.find_opt (starts_with ~prefix:"valuation:") block with
    | None -> Error (Corrupt "entry without a valuation line")
    | Some line -> parse_valuation line
  in
  let detail =
    match List.find_opt (starts_with ~prefix:"detail:") block with
    | None -> ""
    | Some line ->
        let line = String.trim line in
        String.trim (String.sub line 7 (String.length line - 7))
  in
  let op_block =
    block
    |> List.filter (fun l ->
           not
             (starts_with ~prefix:"fail:" l
             || starts_with ~prefix:"valuation:" l
             || starts_with ~prefix:"detail:" l))
    |> String.concat "\n"
  in
  let* operator =
    Result.map_error
      (fun msg -> Corrupt msg)
      (Trace_io.of_string ~allow_strided:true op_block)
  in
  Ok
    {
      ce_operator = operator;
      ce_signature = Graph.operator_signature operator;
      ce_fingerprint = fingerprint operator;
      ce_origin = origin;
      ce_valuation = valuation;
      ce_seed = seed;
      ce_tolerance = tolerance;
      ce_backend = backend;
      ce_detail = detail;
      ce_abs_err = abs;
      ce_fail = fail;
    }

let codec =
  Robust.Durable.codec ~header:"syno-corpus v1" ~noun:"corpus" ~render ~parse
    ~order:(fun a b -> compare (ident a) (ident b))
    ()

let string_of_error = Robust.Durable.string_of_error codec
let to_string entries = Robust.Durable.to_string codec entries
let of_string_result text = Robust.Durable.of_string codec text
let save ~path entries = Robust.Durable.save codec ~path entries
let load_result ~path = Robust.Durable.load codec ~path

(* --- The live corpus --------------------------------------------------------- *)

type stats = {
  st_entries : int;
  st_added : int;
  st_checked : int;
  st_matched : int;
  st_executed : int;
  st_rejected : int;
  st_writes : int;
}

type t = {
  readonly : bool;
  writer : entry Robust.Durable.writer option;  (* [None] when in memory or readonly *)
  mutex : Mutex.t;
  idents : (string, unit) Hashtbl.t;
  by_fingerprint : (string, entry list) Hashtbl.t;
  mutable count : int;
  mutable added : int;
  mutable checked : int;
  mutable matched : int;
  mutable executed : int;
  mutable rejected : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let make ?path ?(readonly = false) ?(every = 1) () =
  {
    readonly;
    writer =
      (match path with
      | Some path when not readonly -> Some (Robust.Durable.writer codec ~path ~every)
      | Some _ | None -> None);
    mutex = Mutex.create ();
    idents = Hashtbl.create 64;
    by_fingerprint = Hashtbl.create 64;
    count = 0;
    added = 0;
    checked = 0;
    matched = 0;
    executed = 0;
    rejected = 0;
  }

let in_memory () = make ()

let insert_locked t e =
  let id = ident e in
  if Hashtbl.mem t.idents id then false
  else begin
    Hashtbl.add t.idents id ();
    let existing = Option.value (Hashtbl.find_opt t.by_fingerprint e.ce_fingerprint) ~default:[] in
    Hashtbl.replace t.by_fingerprint e.ce_fingerprint (existing @ [ e ]);
    t.count <- t.count + 1;
    true
  end

let entries_locked t =
  Hashtbl.fold (fun _ es acc -> es @ acc) t.by_fingerprint []
  |> List.sort (fun a b -> compare (ident a) (ident b))

let entries t = locked t (fun () -> entries_locked t)
let size t = locked t (fun () -> t.count)

(* Under the lock: the snapshot [step] takes, if any.  [Durable.update]
   writes it after the lock is released, on the calling thread. *)
let snapshot_due t step = Option.bind t.writer (fun w -> step w (fun () -> entries_locked t))

(* Preloaded entries (a resumed corpus, a seeding corpus) populate the
   index without counting as additions or triggering writes. *)
let preload t entries =
  locked t (fun () -> List.iter (fun e -> ignore (insert_locked t e)) entries)

let add t e =
  if t.readonly then false
  else
    Robust.Durable.update t.mutex (fun () ->
        if insert_locked t e then begin
          t.added <- t.added + 1;
          (true, snapshot_due t Robust.Durable.note)
        end
        else (false, None))

let merge_into t entries =
  if t.readonly then 0
  else
    Robust.Durable.update t.mutex (fun () ->
        let added =
          List.fold_left
            (fun n e ->
              if insert_locked t e then begin
                t.added <- t.added + 1;
                Option.iter Robust.Durable.mark t.writer;
                n + 1
              end
              else n)
            0 entries
        in
        (added, snapshot_due t Robust.Durable.sync))

let flush t = Robust.Durable.update t.mutex (fun () -> ((), snapshot_due t Robust.Durable.flush))
let writes t = Option.fold ~none:0 ~some:Robust.Durable.writes t.writer

let stats t =
  locked t (fun () ->
      {
        st_entries = t.count;
        st_added = t.added;
        st_checked = t.checked;
        st_matched = t.matched;
        st_executed = t.executed;
        st_rejected = t.rejected;
        st_writes = writes t;
      })

(* --- Opening (crash tolerance) ----------------------------------------------- *)

type open_report = Robust.Durable.open_report = {
  or_loaded : int;
  or_quarantined : (string * error) option;
}

let open_file ?readonly ?every path =
  let entries, report = Robust.Durable.open_file ?readonly codec path in
  let t = make ~path ?readonly ?every () in
  preload t entries;
  (t, report)

(* --- Replay ------------------------------------------------------------------ *)

let replay_entry op ~signature e =
  if e.ce_signature = signature then
    (* The exact operator that failed before: reject without touching a
       tensor.  This is the re-encounter fast path the cegis bench
       gates on. *)
    Error
      (Guard.Counterexample
         (Printf.sprintf "known %s counterexample: %s" (origin_label e.ce_origin) e.ce_detail))
  else
    match e.ce_origin with
    | Static -> (
        match Analysis.Verify.program_opt op e.ce_valuation with
        | None -> Ok false
        | Some Analysis.Verify.Proved | Some (Analysis.Verify.Padded _) -> Ok true
        | Some (Analysis.Verify.Violation d) ->
            Error
              (Guard.Counterexample
                 ("static counterexample replay: " ^ Analysis.Verify.diagnostic_to_string d))
        | exception Failure _ -> Ok false)
    | Differential -> (
        let backend = Option.value e.ce_backend ~default:Differential.Reference in
        match
          Differential.replay_pair ~tolerance:e.ce_tolerance ~seed:e.ce_seed ~backend op
            e.ce_valuation
        with
        | Ok () -> Ok true
        | Error kind ->
            Error
              (Guard.Counterexample ("counterexample replay: " ^ Guard.kind_detail kind)))

let replay t op =
  let fp = fingerprint op in
  let signature = Graph.operator_signature op in
  let matching =
    locked t (fun () ->
        t.checked <- t.checked + 1;
        let es = Option.value (Hashtbl.find_opt t.by_fingerprint fp) ~default:[] in
        t.matched <- t.matched + List.length es;
        es)
  in
  if matching = [] then Ok ()
  else begin
    (* Exact-signature hits first: they are free, and a family sibling
       must never burn tensor time when the candidate itself is already
       a known counterexample. *)
    let ordered =
      List.stable_sort
        (fun a b ->
          compare (a.ce_signature <> signature) (b.ce_signature <> signature))
        matching
    in
    let rec go executed = function
      | [] ->
          locked t (fun () -> t.executed <- t.executed + executed);
          Ok ()
      | e :: rest -> (
          match replay_entry op ~signature e with
          | Ok ran -> go (if ran then executed + 1 else executed) rest
          | Error kind ->
              locked t (fun () ->
                  t.executed <- t.executed + executed;
                  t.rejected <- t.rejected + 1);
              Error kind)
    in
    go 0 ordered
  end

(* --- Sharding ----------------------------------------------------------------- *)

(* First shard wins on a duplicate [ident]; the result is sorted by
   [ident] like every corpus snapshot. *)
let load_and_merge ~base ~shards =
  Robust.Durable.merge_shards codec ~base ~shards ~merge:(fun lists ->
      let acc = in_memory () in
      List.iter (preload acc) lists;
      entries acc)

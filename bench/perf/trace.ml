(* Spans recorded by the benchmark around its calls into the program's
   layers (nothing inside lib/ is instrumented).  Self time is computed
   as spans close: a span's duration minus the time its child spans on
   the same track cover.  Tracks marked [timed] carry the workload's
   traced execution and feed the per-layer numbers; untimed tracks hold
   replays and probes, which appear in the trace file only.

   Spans are kept in memory (the first [max_events]; aggregates stay
   exact past the cap) and written once, as Chrome trace-event JSON,
   when the run ends. *)

let now () = Monotonic_clock.now ()
let elapsed a b = Int64.to_float (Int64.sub b a) *. 1e-9

type event = { e_name : string; e_tid : int; e_ts : int64; e_dur : int64; e_args : (string * string) list }
type frame = { f_name : string; f_start : int64; mutable f_children : int64 }
type totals = { mutable self : float; mutable calls : int }

let max_tracks = 64
let max_events = 50_000

type t = {
  on : bool;
  origin : int64;
  mutable events : event list;
  mutable n_events : int;
  mutable dropped : int;
  totals : (string, totals) Hashtbl.t;
  stacks : frame list array;  (** open spans, per track *)
  tracks : (string * bool) option array;  (** name and timed, per declared track *)
  mutable root_s : float;  (** total duration of the outermost spans on timed tracks *)
}

let create ~on =
  {
    on;
    origin = now ();
    events = [];
    n_events = 0;
    dropped = 0;
    totals = Hashtbl.create 32;
    stacks = Array.make max_tracks [];
    tracks = Array.make max_tracks None;
    root_s = 0.0;
  }

let track t ~tid ~name ~timed = if t.on then t.tracks.(tid) <- Some (name, timed)
let timed t tid = match t.tracks.(tid) with Some (_, timed) -> timed | None -> true

let push t tid name start =
  let f = { f_name = name; f_start = start; f_children = 0L } in
  t.stacks.(tid) <- f :: t.stacks.(tid);
  f

let pop t ~tid ~args f stop =
  let rest = match t.stacks.(tid) with _ :: rest -> rest | [] -> [] in
  t.stacks.(tid) <- rest;
  let dur = Int64.sub stop f.f_start in
  (match rest with parent :: _ -> parent.f_children <- Int64.add parent.f_children dur | [] -> ());
  if timed t tid then begin
    let tot =
      match Hashtbl.find_opt t.totals f.f_name with
      | Some tot -> tot
      | None ->
          let tot = { self = 0.0; calls = 0 } in
          Hashtbl.add t.totals f.f_name tot;
          tot
    in
    tot.self <- tot.self +. (Int64.to_float (Int64.sub dur f.f_children) *. 1e-9);
    tot.calls <- tot.calls + 1;
    if rest = [] then t.root_s <- t.root_s +. (Int64.to_float dur *. 1e-9)
  end;
  if t.n_events < max_events then begin
    t.events <- { e_name = f.f_name; e_tid = tid; e_ts = f.f_start; e_dur = dur; e_args = args } :: t.events;
    t.n_events <- t.n_events + 1
  end
  else t.dropped <- t.dropped + 1

let span t ?(tid = 0) name f =
  if not t.on then f ()
  else begin
    let fr = push t tid name (now ()) in
    Fun.protect ~finally:(fun () -> pop t ~tid ~args:[] fr (now ())) f
  end

(* A span timed elsewhere (a request measured from send to receive, a
   duration the daemon reported), with its children given the same way.
   Children must lie inside [start, stop]. *)
let complete t ?(tid = 0) ?(children = []) name ~start ~stop =
  if t.on then begin
    let fr = push t tid name start in
    List.iter
      (fun (cname, cstart, cstop, cargs) ->
        let c = push t tid cname cstart in
        pop t ~tid ~args:cargs c cstop)
      children;
    pop t ~tid ~args:[] fr stop
  end

let self_s t name = match Hashtbl.find_opt t.totals name with Some tot -> tot.self | None -> 0.0
let calls t name = match Hashtbl.find_opt t.totals name with Some tot -> tot.calls | None -> 0
let root_s t = t.root_s
let spans t = t.n_events + t.dropped

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Time on timed tracks attributed to a program layer: everything but
   the benchmark's own code. *)
let covered_s t = Hashtbl.fold (fun name tot acc -> if layer name = "bench" then acc else acc +. tot.self) t.totals 0.0

let write t ~path ~meta =
  let us ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3) in
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"
  in
  let str s = "\"" ^ Json.escape s ^ "\"" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
      output_string oc (Json.to_string (Json.Object (meta @ [ ("dropped_spans", Json.Number (float_of_int t.dropped)) ])));
      output_string oc ",\n\"traceEvents\": [\n";
      let first = ref true in
      let emit line =
        if not !first then output_string oc ",\n";
        first := false;
        output_string oc line
      in
      Array.iteri
        (fun tid -> function
          | None -> ()
          | Some (name, _) ->
              emit
                (obj
                   [ ("name", str "thread_name"); ("ph", str "M"); ("pid", "1"); ("tid", string_of_int tid);
                     ("args", obj [ ("name", str name) ]) ]))
        t.tracks;
      List.iter
        (fun e ->
          emit
            (obj
               [ ("name", str e.e_name); ("cat", str (layer e.e_name)); ("ph", str "X"); ("pid", "1");
                 ("tid", string_of_int e.e_tid); ("ts", us (Int64.sub e.e_ts t.origin)); ("dur", us e.e_dur);
                 ("args", obj (List.map (fun (k, v) -> (k, str v)) e.e_args)) ]))
        (List.rev t.events);
      output_string oc "\n]}\n")

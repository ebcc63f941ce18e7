module Cancel = Robust.Cancel
module Guard = Robust.Guard
module Graph = Pgraph.Graph
module Admit = Validate.Admit
module Differential = Validate.Differential
module Corpus = Validate.Corpus

type config = {
  socket_path : string;
  cache_path : string option;
  cache_capacity : int;
  cache_every : int;
  corpus_path : string option;
  max_depth : int;
  max_inflight_bytes : int;
  retry_after : float;
  default_deadline : float;
  max_deadline : float;
  workers : int;
  max_connections : int;
  drain_grace : float;
  guard : Robust.Guard.policy;
}

let default_config ~socket =
  {
    socket_path = socket;
    cache_path = None;
    cache_capacity = 1024;
    cache_every = 16;
    corpus_path = None;
    max_depth = 64;
    max_inflight_bytes = 4 * 1024 * 1024;
    retry_after = 0.05;
    default_deadline = 10.0;
    max_deadline = 60.0;
    workers = 2;
    max_connections = 64;
    drain_grace = 5.0;
    (* One quick retry with seeded-jittered backoff: transient failures
       get a second chance without workers retrying in lockstep. *)
    guard = Guard.policy ~retries:1 ~backoff:0.005 ~jitter:0.5 ();
  }

(* --- Request handling (runs on worker domains) ----------------------------- *)

type deps = {
  d_cache : Cache.t;
  d_corpus : Corpus.t option;
  d_guard : Guard.policy;
}

type job = {
  j_conn : int;
  j_request : Protocol.request;
  j_bytes : int;
  j_deadline : float;  (* absolute *)
  j_token : Cancel.t;
}

let error ?retry_after kind detail =
  Protocol.Resp_error { err_kind = kind; err_detail = detail; err_retry_after = retry_after }

let bad_request detail = error "bad_request" detail

let kind_error k = error (Guard.kind_label k) (Guard.kind_detail k)

let timeout_error deadline =
  error "timeout" (Printf.sprintf "deadline %h exceeded" deadline)

let cancelled_error = function
  | Cancel.Deadline_exceeded d -> timeout_error d
  | Cancel.Cancelled_by who -> error "cancelled" ("cancelled by " ^ who)

let ( let* ) r f = Result.bind r f

let resolve_operator rq =
  match (Protocol.param rq "op", Protocol.param rq "trace") with
  | Some name, _ -> (
      match List.find_opt (fun e -> e.Syno.Zoo.name = name) Syno.Zoo.all with
      | Some e -> Ok e.Syno.Zoo.operator
      | None -> Error (Printf.sprintf "unknown zoo operator %S" name))
  | None, Some trace -> Pgraph.Trace_io.of_string ~allow_strided:true trace
  | None, None -> Error "missing op= or trace="

(* The request's shape point, also rendered as a single token so it can
   extend the cache key: the same operator at two shapes is two cached
   outcomes. *)
let resolve_valuation rq =
  let dim key default =
    let* v = Protocol.int_param rq key ~default in
    if v >= 1 then Ok v else Error (Printf.sprintf "parameter %s: must be >= 1" key)
  in
  let* n = dim "n" 1 in
  let* c_in = dim "c_in" 8 in
  let* c_out = dim "c_out" 8 in
  let* hw = dim "hw" 8 in
  let* k = dim "k" 3 in
  let* g = dim "g" 2 in
  let* s = dim "s" 2 in
  let token = Printf.sprintf "n%d.ci%d.co%d.hw%d.k%d.g%d.s%d" n c_in c_out hw k g s in
  Ok (Syno.Zoo.Vars.conv_valuation ~n ~c_in ~c_out ~hw ~k ~g ~s (), token)

(* Per-request seeded fault injection (the [--fault-rate] tradition):
   how tests and the bench poison an operator on demand — a synthetic
   miscompile the differential validator catches, distilled into the
   corpus like a real one. *)
let resolve_fault rq =
  match Protocol.param rq "fault_backend" with
  | None -> Ok None
  | Some label -> (
      match Differential.backend_of_label label with
      | None -> Error (Printf.sprintf "parameter fault_backend: unknown backend %S" label)
      | Some backend ->
          let* rate = Protocol.float_param rq "fault_rate" ~default:1.0 in
          let* () =
            if rate >= 0.0 && rate <= 1.0 then Ok ()
            else Error "parameter fault_rate: must be in [0, 1]"
          in
          let* seed = Protocol.int_param rq "fault_seed" ~default:0 in
          Ok (Some (Differential.fault ~seed ~rate backend)))

(* The cold pipeline is the admission gate search uses: counterexample
   replay, static bounds at the request's valuation, then the
   differential cross-check, whose reference output is the checksum and
   whose specialized backend is the kernel served and timed.  The gate
   distills a rejection into the corpus (when one is attached), so the
   *next* request for the same operator is rejected by cheap replay.
   It all runs under the request's deadline.  A gate rejection is a
   verdict: it is answered from the first attempt, never retried into
   the corpus entry it has just distilled. *)
let eval_cold deps op valuation ~signature ~fault ~token ~remaining =
  let gate =
    Admit.create ?corpus:deps.d_corpus ~static:[ valuation ]
      ~differential:(Differential.config ?fault ()) ~check_valuations:[ valuation ] ()
  in
  let checked = ref None in
  let policy = { deps.d_guard with timeout = Some remaining } in
  let outcome =
    Guard.run ~policy ~cancel:token ~key:signature (fun gtoken ->
        if Option.is_none !checked then checked := Some (Admit.check ~cancel:gtoken gate op);
        0.0)
  in
  match (!checked, outcome.Guard.result) with
  | Some (Error k), _ | (Some (Ok _) | None), Error k -> Error k
  | None, Ok _ -> Error (Guard.Eval_error "evaluation produced no result")
  | Some (Ok { Admit.verdicts; report }), Ok _ -> (
      match (verdicts, report) with
      | [ (_, verdict) ], Some ({ Differential.rep_sums = [ checksum ]; _ } as report) ->
          (* Negative when certification declined and the specialized
             kernel was skipped. *)
          let spec_seconds =
            match
              List.find_opt
                (fun p -> p.Differential.ps_backend = Differential.Specialized)
                report.Differential.rep_pairs
            with
            | Some p -> p.Differential.ps_seconds
            | None -> -1.0
          in
          Ok
            ( (if verdict = Analysis.Verify.Proved then "proved" else "padded"),
              Pgraph.Flops.naive_flops op valuation,
              Pgraph.Flops.params op valuation,
              report.Differential.rep_elements,
              checksum,
              spec_seconds )
      | _ -> Error (Guard.Eval_error "not instantiable under valuation"))

let float_value v = Printf.sprintf "%h" v

let handle_eval deps job =
  let rq = job.j_request in
  let started = Unix.gettimeofday () in
  let finish params =
    let micros = int_of_float ((Unix.gettimeofday () -. started) *. 1e6) in
    Protocol.Resp_ok (params @ [ ("micros", string_of_int micros) ])
  in
  match
    let* op = resolve_operator rq in
    let* valuation, vtoken = resolve_valuation rq in
    let* fault = resolve_fault rq in
    let* use_cache = Protocol.int_param rq "cache" ~default:1 in
    Ok (op, valuation, vtoken, fault, use_cache <> 0)
  with
  | Error msg -> bad_request msg
  | Ok (op, valuation, vtoken, fault, use_cache) -> (
      let signature = Graph.operator_signature op in
      let key = signature ^ "@" ^ vtoken in
      let entry_params (e : Cache.entry) cached =
        [
          ("verdict", e.Cache.e_verdict);
          ("flops", string_of_int e.Cache.e_flops);
          ("params", string_of_int e.Cache.e_params);
          ("elements", string_of_int e.Cache.e_elements);
          ("checksum", float_value e.Cache.e_checksum);
          ("cold", float_value e.Cache.e_cold_seconds);
          ("spec", float_value e.Cache.e_spec_seconds);
          ("cached", if cached then "1" else "0");
        ]
      in
      match if use_cache then Cache.find deps.d_cache key else None with
      | Some e -> finish (entry_params e true)
      | None -> (
          let remaining = job.j_deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then timeout_error job.j_deadline
          else
            match
              eval_cold deps op valuation ~signature ~fault ~token:job.j_token ~remaining
            with
            | Error k -> kind_error k
            | Ok (verdict, flops, params, elements, checksum, spec_seconds) ->
                let entry =
                  {
                    Cache.e_key = key;
                    e_verdict = verdict;
                    e_flops = flops;
                    e_params = params;
                    e_elements = elements;
                    e_checksum = checksum;
                    e_cold_seconds = Unix.gettimeofday () -. started;
                    e_spec_seconds = spec_seconds;
                  }
                in
                if use_cache then Cache.put deps.d_cache entry;
                finish (entry_params entry false)))

let handle_lint _deps job =
  let rq = job.j_request in
  match
    let* op = resolve_operator rq in
    let* valuation, _ = resolve_valuation rq in
    Ok (op, valuation)
  with
  | Error msg -> bad_request msg
  | Ok (op, valuation) ->
      let findings = Analysis.Lint.check ~valuations:[ valuation ] op in
      let errors = Analysis.Lint.errors findings in
      Protocol.Resp_ok
        [
          ("count", string_of_int (List.length findings));
          ("errors", string_of_int (List.length errors));
          ( "findings",
            String.concat ";" (List.map Analysis.Lint.finding_to_string findings) );
        ]

let handle_search _deps job =
  let rq = job.j_request in
  match
    let* iterations = Protocol.int_param rq "iterations" ~default:64 in
    let* max_prims = Protocol.int_param rq "max_prims" ~default:4 in
    let* seed = Protocol.int_param rq "seed" ~default:0 in
    let* top = Protocol.int_param rq "top" ~default:1 in
    if iterations < 1 then Error "parameter iterations: must be >= 1"
    else if max_prims < 1 then Error "parameter max_prims: must be >= 1"
    else Ok (min iterations 1_000_000, max_prims, seed, max 1 top)
  with
  | Error msg -> bad_request msg
  | Ok (iterations, max_prims, seed, top) -> (
      let run =
        Syno.Api.search_conv_operators_run ~iterations ~max_prims ~domains:1
          ~cancel:job.j_token
          ~rng:(Nd.Rng.create ~seed)
          ~valuations:Syno.Api.default_search_valuations ()
      in
      let candidates = run.Syno.Api.candidates in
      match candidates with
      | [] -> Protocol.Resp_ok [ ("candidates", "0") ]
      | best :: _ ->
          Protocol.Resp_ok
            [
              ("candidates", string_of_int (List.length candidates));
              ("top", string_of_int (min top (List.length candidates)));
              ("best", best.Syno.Api.signature);
              ("reward", float_value best.Syno.Api.reward);
              ("flops", string_of_int best.Syno.Api.flops);
            ])

(* Total containment: whatever a request does — bad params, a poisoned
   operator, an exception deep in a backend — the worker answers with a
   typed response and takes the next job.  The process never dies for a
   request. *)
let handle deps job =
  let now = Unix.gettimeofday () in
  if now >= job.j_deadline then timeout_error job.j_deadline
  else
    try
      match job.j_request.Protocol.rq_verb with
      | Protocol.Eval -> handle_eval deps job
      | Protocol.Lint -> handle_lint deps job
      | Protocol.Search -> handle_search deps job
      | Protocol.Status | Protocol.Ping | Protocol.Drain ->
          bad_request "verb handled inline"  (* unreachable: dispatched inline *)
    with
    | Cancel.Cancelled reason -> cancelled_error reason
    | e -> error "eval_error" (Printexc.to_string e)

(* --- The I/O loop ---------------------------------------------------------- *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Buffer.t;
  c_out : Buffer.t;
  mutable c_pending : int;  (* admitted jobs not yet answered *)
  mutable c_eof : bool;
}

let bind_listen path =
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bind () =
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 128;
    Unix.set_nonblock sock;
    Ok sock
  in
  match bind () with
  | ok -> ok
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> (
      (* A socket file can be a live daemon or a stale corpse from a
         SIGKILL.  Probe: a refused/failed connect means nobody is
         listening, so unlink and rebind; a successful one means the
         address is genuinely taken. *)
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then begin
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "%s: already serving" path)
      end
      else begin
        (try Sys.remove path with Sys_error _ -> ());
        match bind () with
        | ok -> ok
        | exception e ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            Error (Printf.sprintf "%s: %s" path (Printexc.to_string e))
      end)
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" path (Printexc.to_string e))

let run ?cancel ?(signals = true) ?on_ready cfg =
  match bind_listen cfg.socket_path with
  | Error msg ->
      Printf.eprintf "syno serve: %s\n%!" msg;
      2
  | Ok listen_fd ->
      let t0 = Unix.gettimeofday () in
      let cache, cache_report =
        match cfg.cache_path with
        | Some path ->
            Cache.open_file ~capacity:cfg.cache_capacity ~every:cfg.cache_every path
        | None ->
            (Cache.create ~capacity:cfg.cache_capacity (), Cache.{ or_loaded = 0; or_quarantined = None })
      in
      let warn codec path report =
        Robust.Durable.warn_quarantine codec ~prefix:"syno serve: " ~path report
      in
      Option.iter (fun path -> warn Cache.codec path cache_report) cfg.cache_path;
      let corpus =
        Option.map
          (fun path ->
            let corpus, report = Corpus.open_file ~every:1 path in
            warn Corpus.codec path report;
            corpus)
          cfg.corpus_path
      in
      let deps =
        {
          d_cache = cache;
          d_corpus = corpus;
          d_guard = cfg.guard;
        }
      in
      (* Three trip-wires: [work_root] preempts in-flight evaluation,
         [draining] stops admission, [stop] aborts everything (SIGINT). *)
      let work_root = Cancel.create () in
      let draining = ref false in
      let drain_started = ref 0.0 in
      let grace_fired = ref false in
      let stop = ref false in
      let start_drain () =
        if not !draining then begin
          draining := true;
          drain_started := Unix.gettimeofday ()
        end
      in
      if signals then begin
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> start_drain ()));
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
      end;
      let queue =
        Admission.create
          {
            Admission.max_depth = cfg.max_depth;
            max_bytes = cfg.max_inflight_bytes;
            retry_after = cfg.retry_after;
          }
      in
      (* Self-pipe: workers poke it after pushing to the outbox so the
         select loop wakes immediately instead of at its tick. *)
      let pipe_rd, pipe_wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock pipe_rd;
      Unix.set_nonblock pipe_wr;
      let outbox_mutex = Mutex.create () in
      let outbox : (int * string) Queue.t = Queue.create () in
      let wake_byte = Bytes.make 1 'w' in
      let push_response conn_id line =
        Mutex.lock outbox_mutex;
        Queue.push (conn_id, line) outbox;
        Mutex.unlock outbox_mutex;
        try ignore (Unix.write pipe_wr wake_byte 0 1) with Unix.Unix_error _ -> ()
      in
      let workers =
        Array.init (max 1 cfg.workers) (fun _ ->
            Domain.spawn (fun () ->
                let rec loop () =
                  match Admission.take queue with
                  | None -> ()
                  | Some job ->
                      let resp = handle deps job in
                      push_response job.j_conn
                        (Protocol.render_response ~id:job.j_request.Protocol.rq_id resp);
                      Admission.complete queue ~bytes:job.j_bytes;
                      loop ()
                in
                loop ()))
      in
      let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
      let next_conn = ref 0 in
      let requests = ref 0 in
      let served = ref 0 in
      let reply conn resp_line =
        Buffer.add_string conn.c_out resp_line;
        Buffer.add_char conn.c_out '\n';
        incr served
      in
      let drop_conn conn =
        (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
        Hashtbl.remove conns conn.c_id
      in
      let status_params () =
        [
          ("uptime", Printf.sprintf "%.3f" (Unix.gettimeofday () -. t0));
          ("requests", string_of_int !requests);
          ("served", string_of_int !served);
          ("draining", if !draining then "1" else "0");
          ("connections", string_of_int (Hashtbl.length conns));
          ("workers", string_of_int (Array.length workers));
          ("cache_size", string_of_int (Cache.size cache));
          ("cache_hits", string_of_int (Cache.hits cache));
          ("cache_misses", string_of_int (Cache.misses cache));
          ("cache_evictions", string_of_int (Cache.evictions cache));
          ("cache_writes", string_of_int (Cache.writes cache));
          ("cache_loaded", string_of_int cache_report.Cache.or_loaded);
          ("queue_depth", string_of_int (Admission.depth queue));
          ("in_flight", string_of_int (Admission.in_flight queue));
          ("inflight_bytes", string_of_int (Admission.inflight_bytes queue));
          ("shed", string_of_int (Admission.shed_count queue));
          ("admitted", string_of_int (Admission.admitted_count queue));
          ("corpus_size", string_of_int (match corpus with Some c -> Corpus.size c | None -> 0));
        ]
      in
      (* Dispatch one framed line.  Cheap verbs (status/ping/drain) are
         answered inline so they stay responsive under full queues —
         exactly when an operator most needs to see the gauges. *)
      let dispatch conn line =
        incr requests;
        let heuristic_id () =
          match String.split_on_char ' ' (String.trim line) with
          | id :: _ when Protocol.is_token id -> id
          | _ -> "-"
        in
        match Protocol.parse_request line with
        | Error msg ->
            reply conn (Protocol.render_response ~id:(heuristic_id ()) (bad_request msg))
        | Ok rq -> (
            let id = rq.Protocol.rq_id in
            let answer resp = reply conn (Protocol.render_response ~id resp) in
            match rq.Protocol.rq_verb with
            | Protocol.Ping -> answer (Protocol.Resp_ok [])
            | Protocol.Status -> answer (Protocol.Resp_ok (status_params ()))
            | Protocol.Drain ->
                start_drain ();
                answer (Protocol.Resp_ok [ ("draining", "1") ])
            | Protocol.Eval | Protocol.Lint | Protocol.Search ->
                if !draining then answer (error "draining" "server is draining")
                else (
                  match Protocol.float_param rq "deadline" ~default:cfg.default_deadline with
                  | Error msg -> answer (bad_request msg)
                  | Ok d when d <= 0.0 -> answer (bad_request "parameter deadline: must be > 0")
                  | Ok d -> (
                      let d = Float.min d cfg.max_deadline in
                      let abs_deadline = Unix.gettimeofday () +. d in
                      let bytes = String.length line in
                      let job =
                        {
                          j_conn = conn.c_id;
                          j_request = rq;
                          j_bytes = bytes;
                          j_deadline = abs_deadline;
                          j_token = Cancel.of_deadline ~parent:work_root abs_deadline;
                        }
                      in
                      match Admission.offer queue ~bytes job with
                      | Ok () -> conn.c_pending <- conn.c_pending + 1
                      | Error shed ->
                          answer
                            (error ~retry_after:shed.Admission.sh_retry_after "overloaded"
                               (Printf.sprintf "queue depth %d, %d bytes in flight"
                                  shed.Admission.sh_depth shed.Admission.sh_bytes)))))
      in
      let feed conn chunk n =
        Buffer.add_subbytes conn.c_in chunk 0 n;
        (* Split out every complete line; leave the partial tail. *)
        let s = Buffer.contents conn.c_in in
        let rec split start =
          match String.index_from_opt s start '\n' with
          | Some i ->
              dispatch conn (String.sub s start (i - start));
              split (i + 1)
          | None ->
              Buffer.clear conn.c_in;
              Buffer.add_substring conn.c_in s start (String.length s - start)
        in
        split 0;
        if Buffer.length conn.c_in > Protocol.max_line then begin
          (* An unterminated line past the cap is an attack or a broken
             client either way: answer once, then cut the connection. *)
          reply conn (Protocol.render_response ~id:"-" (bad_request "line too long"));
          conn.c_eof <- true;
          Buffer.clear conn.c_in
        end
      in
      let drain_outbox () =
        Mutex.lock outbox_mutex;
        let items = Queue.fold (fun acc it -> it :: acc) [] outbox in
        Queue.clear outbox;
        Mutex.unlock outbox_mutex;
        List.iter
          (fun (conn_id, line) ->
            match Hashtbl.find_opt conns conn_id with
            | Some conn ->
                conn.c_pending <- max 0 (conn.c_pending - 1);
                reply conn line
            | None -> ()  (* the client left; nothing to deliver *))
          (List.rev items)
      in
      let flush_conn conn =
        let s = Buffer.contents conn.c_out in
        if s <> "" then
          match Unix.write conn.c_fd (Bytes.of_string s) 0 (String.length s) with
          | n ->
              Buffer.clear conn.c_out;
              if n < String.length s then
                Buffer.add_substring conn.c_out s n (String.length s - n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | exception Unix.Unix_error _ -> drop_conn conn
      in
      let accept_all () =
        let rec go () =
          match Unix.accept ~cloexec:true listen_fd with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              if Hashtbl.length conns >= cfg.max_connections then begin
                (* Connection-level shedding: tell the client why before
                   closing, best-effort. *)
                let line =
                  Protocol.render_response ~id:"-"
                    (error ~retry_after:cfg.retry_after "overloaded" "connection limit")
                  ^ "\n"
                in
                (try ignore (Unix.write fd (Bytes.of_string line) 0 (String.length line))
                 with Unix.Unix_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                Unix.set_nonblock fd;
                incr next_conn;
                Hashtbl.add conns !next_conn
                  {
                    c_id = !next_conn;
                    c_fd = fd;
                    c_in = Buffer.create 256;
                    c_out = Buffer.create 256;
                    c_pending = 0;
                    c_eof = false;
                  };
                go ()
              end
        in
        go ()
      in
      let read_conn conn =
        let chunk = Bytes.create 4096 in
        match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> drop_conn conn
        | 0 -> conn.c_eof <- true
        | n -> feed conn chunk n
      in
      let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
      let buffers_empty () =
        Hashtbl.fold (fun _ c acc -> acc && Buffer.length c.c_out = 0) conns true
      in
      let outbox_empty () =
        Mutex.lock outbox_mutex;
        let e = Queue.is_empty outbox in
        Mutex.unlock outbox_mutex;
        e
      in
      let close_everything () =
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        List.iter drop_conn (all_conns ());
        (try Unix.close pipe_rd with Unix.Unix_error _ -> ());
        (try Unix.close pipe_wr with Unix.Unix_error _ -> ());
        try Sys.remove cfg.socket_path with Sys_error _ -> ()
      in
      let flush_state () =
        Cache.flush cache;
        Option.iter Corpus.flush corpus
      in
      let finish_stop () =
        Cancel.cancel ~reason:"interrupt" work_root;
        Admission.close ~discard:true queue;
        Array.iter Domain.join workers;
        flush_state ();
        close_everything ();
        130
      in
      let finish_drain () =
        Admission.close queue;
        Array.iter Domain.join workers;
        flush_state ();
        close_everything ();
        0
      in
      Option.iter (fun f -> f ()) on_ready;
      let rec loop () =
        if !stop then finish_stop ()
        else begin
          (* An external cancel is a programmatic SIGTERM. *)
          (match cancel with
          | Some c when Cancel.is_cancelled c -> start_drain ()
          | _ -> ());
          drain_outbox ();
          (* Drain is complete when no work is queued or executing, no
             response is in transit, and every byte has left our
             buffers: clients observe all their responses, then EOF. *)
          if !draining && Admission.idle queue && outbox_empty () && buffers_empty ()
          then finish_drain ()
          else begin
            if
              !draining && (not !grace_fired)
              && Unix.gettimeofday () -. !drain_started > cfg.drain_grace
            then begin
              (* Past the grace window, stuck in-flight work is cut by
                 its own cancel token; it still answers (typed
                 [cancelled]/[timeout]) before the drain completes. *)
              grace_fired := true;
              Cancel.cancel ~reason:"drain grace elapsed" work_root
            end;
            let conn_list = all_conns () in
            let reads =
              pipe_rd
              :: (if !draining then [] else [ listen_fd ])
              @ List.filter_map (fun c -> if c.c_eof then None else Some c.c_fd) conn_list
            in
            let writes =
              List.filter_map
                (fun c -> if Buffer.length c.c_out > 0 then Some c.c_fd else None)
                conn_list
            in
            (match Unix.select reads writes [] 0.05 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | readable, writable, _ ->
                if List.mem pipe_rd readable then begin
                  let buf = Bytes.create 64 in
                  let rec drain_pipe () =
                    match Unix.read pipe_rd buf 0 64 with
                    | exception Unix.Unix_error _ -> ()
                    | 0 -> ()
                    | _ -> drain_pipe ()
                  in
                  drain_pipe ()
                end;
                if List.mem listen_fd readable then accept_all ();
                List.iter
                  (fun c -> if List.mem c.c_fd readable then read_conn c)
                  conn_list;
                drain_outbox ();
                List.iter
                  (fun c ->
                    if Hashtbl.mem conns c.c_id && List.mem c.c_fd writable then flush_conn c)
                  conn_list);
            (* Retire connections whose client left and whose answers
               are all delivered. *)
            List.iter
              (fun c ->
                if
                  Hashtbl.mem conns c.c_id && c.c_eof && c.c_pending = 0
                  && Buffer.length c.c_out = 0
                then drop_conn c)
              (all_conns ());
            loop ()
          end
        end
      in
      loop ()

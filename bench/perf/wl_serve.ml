(* serve-cold and serve-hot: the real [syno serve] daemon (default two
   workers, default cache capacity and snapshot cadence, a cache file
   and a corpus file) driven over its Unix socket by one closed-loop
   client: one thread, a fixed window of outstanding requests on one
   connection, the next request sent as soon as a response arrives, and
   the [status] verb on a second connection.  The number of requests is
   fixed; the seed decides which keys and in what order.

   serve-cold sends every request to a distinct [signature@valuation]
   key, so each one misses the cache and runs the whole cold pipeline
   (static verification, differential validation, reference forward,
   specialization) followed by a cache put and periodic snapshot: the
   write path.  serve-hot first warms 22 keys, then draws Zipf(1.1)
   requests over them that all hit the cache: no tensor work at all,
   only the IO loop, the protocol, admission and the cache lookup. *)

open Work
module P = Serve.Protocol
module C = Serve.Client
module Zoo = Syno.Zoo

let cold_window = 2
let cold_requests ctx = if ctx.smoke then 24 else sized ctx ~per_second:130.0
let hot_window = 8
let hot_requests ctx = if ctx.smoke then 400 else sized ctx ~per_second:36000.0
let hot_keys = 22
let zipf_exponent = 1.1
let checked_keys ctx = if ctx.smoke then 8 else 150
let replayed_keys ctx = if ctx.smoke then 4 else 60
let replayed_lines = 2000

type key = {
  entry : Zoo.entry;
  v : Shape.Valuation.t;
  params : (string * string) list;
  name : string;  (** the daemon's cache key, [signature@valuation] *)
}

(* --- Keys -------------------------------------------------------------------- *)

(* Conv-shaped zoo operators at one image over small shapes; each shape
   comes in four coefficient variants (g, s), which keeps every key of a
   run distinct at a similar cost. *)
let shapes =
  let ( let* ) l f = List.concat_map f l in
  let* c_in = [ 4; 6; 8 ] in
  let* c_out = [ 4; 6; 8 ] in
  let* hw = [ 4; 5; 6; 7; 8 ] in
  let* k = [ 1; 3 ] in
  [ (c_in, c_out, hw, k) ]

let variants = [| (1, 1); (1, 2); (2, 1); (2, 2) |]

let key_of (entry : Zoo.entry) (c_in, c_out, hw, k) (g, s) =
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in ~c_out ~hw ~k ~g ~s () in
  match Analysis.Verify.program_opt entry.Zoo.operator v with
  | None | Some (Analysis.Verify.Violation _) -> None
  | Some _ ->
      let i = string_of_int in
      Some
        {
          entry;
          v;
          params =
            [ ("op", entry.Zoo.name); ("n", "1"); ("c_in", i c_in); ("c_out", i c_out); ("hw", i hw);
              ("k", i k); ("g", i g); ("s", i s) ];
          name =
            Printf.sprintf "%s@n1.ci%d.co%d.hw%d.k%d.g%d.s%d"
              (Pgraph.Graph.operator_signature entry.Zoo.operator)
              c_in c_out hw k g s;
        }

let shuffled rng l =
  let a = Array.of_list l in
  Nd.Rng.shuffle rng a;
  Array.to_list a

(* Distinct zoo names can share a signature, and so every cache key:
   only the first name of each signature is used. *)
let distinct_ops =
  lazy
    (let seen = Hashtbl.create 16 in
     List.filter
       (fun (e : Zoo.entry) ->
         let s = Pgraph.Graph.operator_signature e.Zoo.operator in
         (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true))
       Zoo.conv_like)

(* The cold key order, built to keep a run's cost from moving with the
   seed: the operator and the shape decide most of a request's cost.
   The sequence is four blocks; each block holds every (operator,
   shape) once, in a variant no other block uses for it, so a block's
   mix never changes.  Inside a block the keys are dealt round-robin
   across operators, so any prefix holds nearly the same mix too. *)
let cold_keys ctx =
  let rng = seeded ctx "cold-keys" in
  let ops = Lazy.force distinct_ops in
  let offset = Hashtbl.create 1024 in
  List.iter
    (fun (e : Zoo.entry) -> List.iter (fun sh -> Hashtbl.replace offset (e.Zoo.name, sh) (Nd.Rng.int rng 4)) shapes)
    ops;
  let block b =
    let queues =
      List.map
        (fun (e : Zoo.entry) ->
          ref
            (List.filter_map
               (fun sh -> key_of e sh variants.((b + Hashtbl.find offset (e.Zoo.name, sh)) mod 4))
               (shuffled rng shapes)))
        ops
    in
    let out = ref [] in
    let rec deal () =
      match List.filter (fun q -> !q <> []) queues with
      | [] -> List.rev !out
      | live ->
          List.iter
            (fun q ->
              match !q with
              | k :: rest ->
                  out := k :: !out;
                  q := rest
              | [] -> ())
            (shuffled rng live);
          deal ()
    in
    deal ()
  in
  Array.of_list (List.concat_map block [ 0; 1; 2; 3 ])

(* Keys cheap to evaluate cold (at most 6x6 and 6 channels), drawn by
   [rng]: the hot set, and the set-up's warm-up. *)
let small_keys rng count =
  let pool =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun ((c_in, c_out, hw, _) as sh) ->
            if hw > 6 || c_in > 6 || c_out > 6 then []
            else List.filter_map (key_of e sh) (Array.to_list variants))
          shapes)
      (Lazy.force distinct_ops)
  in
  Array.of_list (List.filteri (fun i _ -> i < count) (shuffled rng pool))

let zipf rng n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_exponent));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Nd.Rng.float rng *. total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* --- The daemon --------------------------------------------------------------- *)

type daemon = { pid : int; conn : C.t; status_conn : C.t }

(* The CLI binary the same build produced, next to this executable's
   directory in the build tree. *)
let cli () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; Filename.parent_dir_name; "bin"; "syno_cli.exe" ]

let live = ref []

(* A daemon still running when the benchmark leaves, by whatever path,
   is killed and reaped; SIGTERM and SIGINT leave through [exit] too. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live);
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ]

let must what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Paths are relative, so the socket path stays short wherever the
   checkout lives; the daemon inherits this process's directory. *)
let spawn dir =
  Array.iter (fun f -> rm_rf (Filename.concat dir f)) (Sys.readdir dir);
  let file = Filename.concat dir in
  let sock = file "d.sock" in
  let exe = cli () in
  let args = [| exe; "serve"; "--socket"; sock; "--cache"; file "cache.snap"; "--corpus"; file "bugs.corpus" |] in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe args Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  live := pid :: !live;
  (* Watch for the socket at a fine grain, so set-up time is not rounded
     up to the client's 20 ms connect retry. *)
  let t0 = Trace.now () in
  while (not (Sys.file_exists sock)) && Trace.elapsed t0 (Trace.now ()) < 30.0 do
    Unix.sleepf 0.0005
  done;
  let conn = must "connect" (C.connect ~timeout:30.0 sock) in
  { pid; conn; status_conn = must "connect" (C.connect ~timeout:30.0 sock) }

let ids = ref 0

let call conn ?(params = []) verb =
  incr ids;
  must "call" (C.call ~timeout:60.0 conn { P.rq_id = Printf.sprintf "c%d" !ids; rq_verb = verb; rq_params = params })

let param resp key = match resp with P.Resp_ok ps -> List.assoc_opt key ps | P.Resp_error _ -> None

let describe = function
  | P.Resp_ok _ -> "ok"
  | P.Resp_error { err_kind; err_detail; _ } -> err_kind ^ " " ^ err_detail

(* Counters from the [status] verb, read on the second connection. *)
let status d =
  let resp = call d.status_conn P.Status in
  fun key -> match param resp key with Some v -> float_of_string v | None -> nan

(* SIGTERM drains the daemon; a clean drain exits 0. *)
let stop d =
  C.close d.conn;
  C.close d.status_conn;
  Unix.kill d.pid Sys.sigterm;
  let _, st = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  st = Unix.WEXITED 0

(* A set-up: spawn a daemon, have it answer a ping and evaluate a fixed
   warm-up set.  The warm-up keys do not depend on the seed, so every run
   sets up the same way. *)
let warm_up_keys = lazy (small_keys (Nd.Rng.create ~seed:0) 4)

let start c dir =
  let d = spawn dir in
  check c (call d.conn P.Ping = P.Resp_ok []) "serve: ping refused";
  Array.iter
    (fun k ->
      let resp = call d.conn ~params:(("cache", "0") :: k.params) P.Eval in
      check c (param resp "verdict" <> None) "serve warm-up %s: %s" k.name (describe resp))
    (Lazy.force warm_up_keys);
  d

(* [n] >= 1 timed set-ups in a row, each daemon drained (untimed) before
   the next starts; the last one keeps running. *)
let set_up_daemons log c dir n =
  let rec go k =
    let d = Work.set_up log (fun () -> start c dir) in
    if k <= 1 then d
    else begin
      check c (stop d) "serve: set-up daemon did not drain to exit 0";
      go (k - 1)
    end
  in
  go n

(* The set-ups before the timed loop leave the daemon it drives; the
   rest run after it, once the measured daemon has drained. *)
let setup_before ctx log c dir = set_up_daemons log c dir (1 + extra_setups ctx ~slots:2 0)

let setup_after ctx log c dir =
  let n = extra_setups ctx ~slots:2 1 in
  if n > 0 then check c (stop (set_up_daemons log c dir n)) "serve: set-up daemon did not drain to exit 0"

(* --- The closed loop ------------------------------------------------------------ *)

type loop = {
  latency : float array;  (** per request, in send order: seconds from send to receive *)
  micros : float array;  (** per request: the daemon's own handling time, seconds *)
  lines : (string * string) list;  (** the first request/response lines, for the protocol replay *)
  wall : float;
  span_s : float;  (** traced: time spent recording spans, inside [wall] *)
  depth_max : float;  (** traced: the deepest admission queue the status polls saw *)
}

(* Send [count] requests, keeping [window] in flight; [key i] is the
   i-th request's key and [on_response i resp] sees every response.  In
   the traced run each request is a span on its client slot's track, the
   daemon's reported handling time a span inside it. *)
let closed_loop ctx d ~window ~count ~key ~on_response =
  let tr = ctx.trace in
  for s = 0 to window - 1 do
    Trace.track tr ~tid:(s + 1) ~name:(Printf.sprintf "client slot %d" s) ~timed:true
  done;
  let latency = Array.make count 0.0 and micros = Array.make count 0.0 in
  (* Request i went out on slot [slot_of.(i)]; a slot holds one request
     at a time, sent at [sent_at.(slot)]. *)
  let slot_of = Array.make count 0 and sent_at = Array.make window 0L in
  let t0 = Trace.now () in
  let slot_free = Array.make window t0 in
  let sent = ref 0 and received = ref 0 and last = ref t0 and span_s = ref 0.0 in
  let lines = ref [] and n_lines = ref 0 and depth_max = ref 0.0 in
  let render i = P.render_request { P.rq_id = string_of_int i; rq_verb = P.Eval; rq_params = (key i).params } in
  let send slot =
    if !sent < count then begin
      let i = !sent in
      let start = Trace.now () in
      must "send" (C.send_line d.conn (render i));
      if traced ctx then begin
        let traced_from = Trace.now () in
        Trace.complete tr ~tid:(slot + 1) "bench.client" ~start:slot_free.(slot) ~stop:start;
        span_s := !span_s +. Trace.elapsed traced_from (Trace.now ())
      end;
      slot_of.(i) <- slot;
      sent_at.(slot) <- start;
      incr sent
    end
  in
  for s = 0 to window - 1 do
    send s
  done;
  let next_poll = ref t0 in
  while !received < !sent do
    let line = must "recv" (C.recv_line ~timeout:60.0 d.conn) in
    let stop = Trace.now () in
    last := stop;
    incr received;
    let id, resp = must "response" (P.parse_response line) in
    let i = int_of_string id in
    let slot = slot_of.(i) in
    let start = sent_at.(slot) in
    latency.(i) <- Trace.elapsed start stop;
    micros.(i) <- (match param resp "micros" with Some m -> float_of_string m *. 1e-6 | None -> 0.0);
    on_response i resp;
    if traced ctx then begin
      let traced_from = Trace.now () in
      (* The daemon reports how long it handled the request, not when:
         the server span is drawn centred in the request. *)
      let dur = Int64.sub stop start in
      let m = Int64.of_float (Float.min (micros.(i) *. 1e9) (Int64.to_float dur)) in
      let s0 = Int64.add start (Int64.div (Int64.sub dur m) 2L) in
      Trace.complete tr ~tid:(slot + 1) "serve.request" ~start ~stop
        ~children:[ ("serve.server", s0, Int64.add s0 m, [ ("placement", "inferred") ]) ];
      if !n_lines < replayed_lines then begin
        lines := (render i, line) :: !lines;
        incr n_lines
      end;
      (* Poll the queue depth on the second connection. *)
      if stop >= !next_poll then begin
        next_poll := Int64.add stop 250_000_000L;
        depth_max := Float.max !depth_max (status d "queue_depth")
      end;
      span_s := !span_s +. Trace.elapsed traced_from (Trace.now ())
    end;
    slot_free.(slot) <- Trace.now ();
    send slot
  done;
  { latency; micros; lines = List.rev !lines; wall = Trace.elapsed t0 !last; span_s = !span_s; depth_max = !depth_max }

let e2e_of ~setup_s ~rss_mb loop =
  let n = Array.length loop.latency in
  end_to_end ~setup_s ~rss_mb ~ops_per_s:(float_of_int n /. loop.wall) ~samples:n ~latencies:loop.latency

(* --- Per-layer views ------------------------------------------------------------ *)

(* The client runs one thread, so recording spans delays its next
   request by the time the recording takes. *)
let overhead loop = loop.wall /. (loop.wall -. loop.span_s)

let p50 a = Stats.percentile a 0.5
let p99 a = Stats.percentile a 0.99
let sub a b = Array.map2 ( -. ) a b

(* Repeat [once] for about [budget] seconds; seconds per call. *)
let per_call ~budget ~calls once =
  let (), t1 = time once in
  let reps = max 1 (int_of_float (budget /. Float.max 1e-6 t1)) in
  let (), t = time (fun () -> for _ = 1 to reps do once () done) in
  t /. float_of_int (reps * max 1 calls)

(* [parse_request] (in the IO loop) and [render_response] (in the worker,
   after the handler's clock stops) on the recorded lines. *)
let protocol_replay lines =
  let parsed = List.map (fun (rq, rsp) -> (rq, must "response" (P.parse_response rsp))) lines in
  let per_request =
    per_call ~budget:0.05 ~calls:(List.length lines) (fun () ->
        List.iter
          (fun (rq, (id, resp)) ->
            ignore (P.parse_request rq);
            ignore (P.render_response ~id resp))
          parsed)
  in
  metric ~samples:(List.length lines) "serve.protocol_us" (1e6 *. per_request)

let entry_for key =
  {
    Serve.Cache.e_key = key.name;
    e_verdict = "padded";
    e_flops = 1_000_000;
    e_params = 1000;
    e_elements = 1000;
    e_checksum = 0.1;
    e_cold_seconds = 0.01;
    e_spec_seconds = 0.001;
  }

let counters ~before ~after =
  let d k = after k -. before k in
  let hits = d "cache_hits" and misses = d "cache_misses" in
  [
    metric "serve.cache_hit_ratio" (hits /. Float.max 1.0 (hits +. misses));
    metric "serve.cache_misses" misses;
    metric "serve.cache_evictions" (d "cache_evictions");
    metric "serve.cache_writes" (d "cache_writes");
    metric "serve.shed" (d "shed");
  ]

(* --- serve-cold ---------------------------------------------------------------- *)

let verdict_of = function
  | Some Analysis.Verify.Proved -> "proved"
  | Some (Analysis.Verify.Padded _) -> "padded"
  | Some (Analysis.Verify.Violation _) | None -> "none"

(* The inputs the daemon evaluates a key on: drawn from
   [derive_seed ~seed:0 signature]. *)
let daemon_inputs key =
  let op = key.entry.Zoo.operator in
  let compiled = Lower.Reference.compile op key.v in
  let rng =
    Nd.Rng.create ~seed:(Validate.Differential.derive_seed ~seed:0 (Pgraph.Graph.operator_signature op))
  in
  let weights = Lower.Reference.init_weights compiled rng in
  (compiled, Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled), weights)

(* The daemon's cold answer recomputed in process: the reference
   forward's checksum and the static verdict. *)
let expected key =
  let compiled, input, weights = daemon_inputs key in
  ( Nd.Tensor.sum (Lower.Reference.forward compiled ~input ~weights),
    verdict_of (Analysis.Verify.program_opt key.entry.Zoo.operator key.v) )

let pipeline_stages =
  [ "analysis.verify"; "validate.differential"; "lower.reference"; "lower.specialize_compile"; "lower.specialize_forward" ]

(* One request's cold pipeline, stage by stage, as the daemon runs it;
   each stage's seconds. *)
let pipeline_replay tr key =
  let op = key.entry.Zoo.operator and v = key.v in
  let stage name f = time (fun () -> Trace.span tr ~tid:10 name f) in
  let _, verify = stage "analysis.verify" (fun () -> Analysis.Verify.program_opt op v) in
  let _, diff =
    stage "validate.differential" (fun () ->
        Validate.Differential.check_full ~config:(Validate.Differential.config ()) op [ v ])
  in
  let (input, weights), reference =
    stage "lower.reference" (fun () ->
        let compiled, input, weights = daemon_inputs key in
        ignore (Nd.Tensor.sum (Lower.Reference.forward compiled ~input ~weights));
        (input, weights))
  in
  let sp, compile = stage "lower.specialize_compile" (fun () -> Syno.Api.specialize_operator ~mode:`Auto op v) in
  let _, forward =
    stage "lower.specialize_forward" (fun () ->
        match sp with Ok (Some sp) -> ignore (Lower.Specialize.forward sp ~input ~weights) | Ok None | Error _ -> ())
  in
  [| verify; diff; reference; compile; forward |]

(* [n] request indices out of [count], drawn by the seed. *)
let pick ctx salt n count = List.filteri (fun i _ -> i < n) (shuffled (seeded ctx salt) (List.init count Fun.id))

let run_cold ctx =
  let c = checks () in
  let dir = scratch ctx "serve-cold" in
  let log = setups () in
  let d = setup_before ctx log c dir in
  let keys = cold_keys ctx in
  let count = min (cold_requests ctx) (Array.length keys) in
  let answers = Array.make count (None, None) in
  let before = status d in
  let loop =
    closed_loop ctx d ~window:cold_window ~count
      ~key:(fun i -> keys.(i))
      ~on_response:(fun i resp ->
        check c (param resp "cached" = Some "0") "serve-cold %s: %s" keys.(i).name (describe resp);
        answers.(i) <- (param resp "checksum", param resp "verdict"))
  in
  let after = status d in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  check c (stop d) "serve-cold: daemon did not drain to exit 0";
  setup_after ctx log c dir;
  (* A seeded sample of the answers, recomputed in process after the
     timed loop, so the check never competes with the daemon. *)
  List.iter
    (fun i ->
      let checksum, verdict = expected keys.(i) in
      let got_sum, got_verdict = answers.(i) in
      check c
        (Option.bind got_sum float_of_string_opt = Some checksum && got_verdict = Some verdict)
        "serve-cold %s: checksum/verdict differ from the in-process reference" keys.(i).name)
    (pick ctx "checked" (checked_keys ctx) count);
  let layer =
    if not (traced ctx) then []
    else begin
      let tr = ctx.trace in
      Trace.track tr ~tid:10 ~name:"replay: cold pipeline" ~timed:false;
      (* The cold pipeline replayed in process on a sample of the keys;
         its stages against the daemon's own time for the same keys. *)
      let replayed = pick ctx "replayed" (replayed_keys ctx) count in
      let n = List.length replayed in
      let per_key = List.map (fun i -> pipeline_replay tr keys.(i)) replayed in
      let stage j = List.fold_left (fun acc st -> acc +. st.(j)) 0.0 per_key /. float_of_int n in
      let stages = List.mapi (fun j name -> (name, stage j)) pipeline_stages in
      let server = List.fold_left (fun acc i -> acc +. loop.micros.(i)) 0.0 replayed /. float_of_int n in
      (* A snapshot of the cache at its final size, saved the way the
         daemon saves one every 16 puts. *)
      let save_ms =
        let cache = Serve.Cache.create () in
        for i = 0 to min count (int_of_float (after "cache_size")) - 1 do
          Serve.Cache.put cache (entry_for keys.(i))
        done;
        let path = Filename.concat dir "replay.snap" in
        1000.0 *. Stats.median (Array.init 5 (fun _ -> snd (time (fun () -> Serve.Cache.save ~path cache))))
      in
      let client = sub loop.latency loop.micros in
      trace_metrics ctx ~overhead:(overhead loop)
      @ [
          metric ~samples:count "serve.server_ms" (1000.0 *. p50 loop.micros);
          metric ~samples:count "serve.overhead_ms" (1000.0 *. p50 client);
          metric ~samples:count "serve.overhead_p99_ms" (1000.0 *. p99 client);
          metric ~samples:count "serve.cold_p99_ms" (1000.0 *. p99 loop.latency);
          metric ~samples:n "serve.profile_coverage" (List.fold_left (fun a (_, t) -> a +. t) 0.0 stages /. server);
          metric ~samples:5 "serve.cache_save_ms" save_ms;
          metric "serve.queue_depth_max" loop.depth_max;
          protocol_replay loop.lines;
        ]
      @ List.map (fun (name, t) -> metric ~samples:n (name ^ "_ms") (1000.0 *. t)) stages
      @ counters ~before ~after
    end
  in
  rm_rf dir;
  {
    checks = c;
    metrics = e2e_of ~setup_s:(setup_metric log) ~rss_mb loop @ layer;
    sizes =
      [
        ("window", Json.Number (float_of_int cold_window));
        ("requests", Json.Number (float_of_int count));
        ("keys", Json.Number (float_of_int (Array.length keys)));
      ];
  }

(* --- serve-hot ----------------------------------------------------------------- *)

let run_hot ctx =
  let c = checks () in
  let dir = scratch ctx "serve-hot" in
  let log = setups () in
  let d = setup_before ctx log c dir in
  (* The hot set, each key evaluated cold once, untimed; its checksum is
     what every later hit must return. *)
  let hot = small_keys (seeded ctx "hot") hot_keys in
  let checksums =
    Array.map
      (fun k ->
        let resp = call d.conn ~params:k.params P.Eval in
        check c (param resp "cached" = Some "0") "serve-hot warm-up %s: %s" k.name (describe resp);
        param resp "checksum")
      hot
  in
  let draw = zipf (seeded ctx "zipf") (Array.length hot) in
  let order = Array.init (hot_requests ctx) (fun _ -> draw ()) in
  let before = status d in
  let loop =
    closed_loop ctx d ~window:hot_window ~count:(Array.length order)
      ~key:(fun i -> hot.(order.(i)))
      ~on_response:(fun i resp ->
        let k = order.(i) in
        check c
          (param resp "cached" = Some "1" && param resp "checksum" = checksums.(k))
          "serve-hot %s: %s, not the warm cached answer" hot.(k).name (describe resp))
  in
  let after = status d in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  check c (stop d) "serve-hot: daemon did not drain to exit 0";
  setup_after ctx log c dir;
  let layer =
    if not (traced ctx) then []
    else begin
      (* [Cache.find] on the run's first keys, against a cache holding the
         hot set. *)
      let cache = Serve.Cache.create () in
      Array.iter (fun k -> Serve.Cache.put cache (entry_for k)) hot;
      let looked_up = Array.sub order 0 (min replayed_lines (Array.length order)) in
      let find =
        per_call ~budget:0.05 ~calls:(Array.length looked_up) (fun () ->
            Array.iter (fun k -> ignore (Serve.Cache.find cache hot.(k).name)) looked_up)
      in
      let n = Array.length order in
      trace_metrics ctx ~overhead:(overhead loop)
      @ [
          metric ~samples:n "serve.hot_server_us" (1e6 *. p50 loop.micros);
          metric ~samples:n "serve.hot_overhead_us" (1e6 *. p50 (sub loop.latency loop.micros));
          metric ~samples:n "serve.hot_p99_us" (1e6 *. p99 loop.latency);
          protocol_replay loop.lines;
          metric ~samples:(Array.length looked_up) "serve.cache_find_us" (1e6 *. find);
          metric "serve.queue_depth_max" loop.depth_max;
        ]
      @ counters ~before ~after
    end
  in
  rm_rf dir;
  {
    checks = c;
    metrics = e2e_of ~setup_s:(setup_metric log) ~rss_mb loop @ layer;
    sizes =
      [
        ("window", Json.Number (float_of_int hot_window));
        ("requests", Json.Number (float_of_int (Array.length order)));
        ("keys", Json.Number (float_of_int hot_keys));
        ("zipf", Json.Number zipf_exponent);
      ];
  }

(* What every workload shares: the run context, failure accounting,
   timing helpers and the end-to-end summary. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** the measurement window the fixed sizes are scaled to *)
  smoke : bool;  (** tiny sizes: checks names and correctness, not speed *)
  trace : Trace.t;  (** off unless this is the traced run *)
  out : string;  (** output directory; scratch files live under it *)
}

let traced ctx = ctx.trace.Trace.on

(* How many times a run repeats its unit of work: a fixed number per
   second of the window, so the count depends on [--seconds] alone and
   never on a timing taken during the run.  The parent and a change do
   exactly the same work on exactly the same inputs. *)
let sized ctx ~per_second = max 1 (int_of_float (Float.round (ctx.seconds *. per_second)))

(* Set up this many times and report the median as [setup_s].  The
   set-ups after the first are spread over the run (between passes, or
   before and after a timed loop), so one slow stretch of the machine
   does not decide the median. *)
let setup_reps ctx = if ctx.smoke then 1 else 9

(* How many of the set-ups after the first run at slot [i] of [slots]. *)
let extra_setups ctx ~slots i =
  let n = setup_reps ctx - 1 in
  (n * (i + 1) / slots) - (n * i / slots)

(* Failed operations counted against attempted ones; the first few
   failures are kept for the report. *)
type checks = { mutable attempted : int; mutable failed : int; mutable why : string list }

let checks () = { attempted = 0; failed = 0; why = [] }

let check c ok fmt =
  c.attempted <- c.attempted + 1;
  if ok then Printf.ikfprintf ignore () fmt
  else
    Printf.ksprintf
      (fun msg ->
        c.failed <- c.failed + 1;
        if List.length c.why < 5 then c.why <- msg :: c.why)
      fmt

type metric = { name : string; value : float; samples : int }

let metric ?(samples = 1) name value = { name; value; samples }

type outcome = {
  checks : checks;
  metrics : metric list;
  sizes : (string * Json.t) list;  (** the workload's fixed input sizes *)
}

let time f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Trace.elapsed t0 (Trace.now ()))

(* [time] after an untimed full major collection, so an in-process
   operation does not pay for the garbage the ones before it left. *)
let time_settled f =
  Gc.full_major ();
  time f

(* The set-up times of one run. *)
type setups = { mutable times : float list }

let setups () = { times = [] }

let set_up log f =
  let r, t = time_settled f in
  log.times <- t :: log.times;
  r

let setup_metric log =
  metric ~samples:(List.length log.times) "setup_s" (Stats.median (Array.of_list log.times))

(* VmHWM of a process ("self" or a pid), in MB. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* In-process workloads repeat identical operations (a seeded search, an
   operator's forward pass, a model's step) in interleaved passes.  An
   operation's cost is fixed, but the machine's caches and memory bus are
   shared, and a neighbour slows whole seconds of a run at a time; the
   best of an operation's repeats estimates its uncontended cost. *)
let best a = Array.fold_left Float.min infinity a

(* The end-to-end metrics.  [latencies] holds one time per operation,
   in seconds: each distinct operation's best time for the in-process
   workloads, each request's latency for the serve workloads. *)
let end_to_end ~setup_s ~rss_mb ~ops_per_s ~samples ~latencies =
  [
    setup_s;
    metric "peak_rss_mb" rss_mb;
    metric ~samples "ops_per_s" ops_per_s;
    metric ~samples:(Array.length latencies) "p50_ms" (1000.0 *. Stats.percentile latencies 0.5);
  ]

(* Per-layer metrics every traced run reports.  [overhead] is the time
   of some work with spans over its time without. *)
let trace_metrics ctx ~overhead =
  let tr = ctx.trace in
  [
    metric "trace.overhead" overhead;
    metric "trace.coverage" (Trace.covered_s tr /. Float.max 1e-9 (Trace.root_s tr));
    metric "trace.spans" (float_of_int (Trace.spans tr));
  ]

let seeded ctx salt = Nd.Rng.create ~seed:(Hashtbl.hash (ctx.seed, ctx.workload, salt))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* A fresh private directory under the output directory. *)
let scratch ctx name =
  let dir = Filename.concat ctx.out (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

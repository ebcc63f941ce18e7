(** Crash-tolerant coordinator for sharded multi-process search.

    {!Shard} decides what each worker owns and how results merge; this
    module owns the processes.  {!run} forks up to [workers] children,
    hands each a {!Shard.assignment}, and supervises them over pipes:
    every worker heartbeats through an inherited pipe, and the
    coordinator SIGKILLs a worker whose heartbeat goes silent for
    [heartbeat_timeout] seconds or whose attempt outlives
    [shard_deadline].  A dead shard (crash, kill, nonzero exit) is
    re-queued with exponential backoff and picked up by the next free
    worker slot — its unfinished partition is redistributed to the
    survivors, resumed from its own atomic checkpoint — until its
    [max_restarts] budget is exhausted, at which point it is reported
    [Failed] and whatever checkpoint it managed still merges.

    OCaml 5 refuses [Unix.fork] in a process that has ever spawned a
    domain, even after joining it, so call {!run} before anything in
    the process starts a {!Par.Pool} of more than one domain (the
    default pool is started by the first parallel einsum or staged
    forward).

    Shutdown: when [cancel] trips (the CLI's SIGINT/SIGTERM handlers),
    the coordinator cascades SIGTERM to every live worker; each worker's
    own handler trips its in-process token, the search returns at the
    next safe point, the checkpoint flushes, and the worker exits 130.
    Workers still alive after [grace] seconds are SIGKILLed.

    Determinism: {!run_inline} executes the {e same} shard bodies
    sequentially in-process — identical assignments, identical derived
    seeds, no forks — and merges identically.  Because each shard's
    trajectory is deterministic in (seed, partition, memoized rewards)
    and checkpoint resume replays exactly, a forked run with kills and
    restarts merges to the same result as [run_inline].  [bench shard]
    and the test suite assert this end to end. *)

(** What a shard body sees.  The body runs once per attempt — in a
    forked child under {!run}, in-process under {!run_inline} — and
    must persist its results at [assignment.path] (atomically; see
    {!Checkpoint}) before returning. *)
type ctx = {
  assignment : Shard.assignment;
  attempt : int;  (** 0 on the first try, incremented per restart *)
  forked : bool;  (** [false] under {!run_inline} *)
  beat : unit -> unit;
      (** heartbeat — call it often (e.g. once per reward evaluation).
          Rate-limited and non-blocking internally; a no-op inline. *)
  cancel : Robust.Cancel.t;
      (** per-attempt shutdown token; in a worker it trips on
          SIGTERM/SIGINT, inline it is (a child of) the caller's token *)
}

type config = {
  shards : int;  (** partition count, >= 1 *)
  workers : int;  (** max concurrent worker processes, >= 1 *)
  heartbeat_timeout : float;
      (** seconds of heartbeat silence before the worker is killed;
          [<= 0.] disables the monitor *)
  shard_deadline : float option;  (** per-attempt wall-clock bound *)
  max_restarts : int;  (** restarts per shard beyond the first attempt *)
  backoff : float;
      (** base restart delay in seconds, doubled per attempt *)
  grace : float;
      (** seconds between the SIGTERM cascade and SIGKILL *)
}

val default_config : ?shards:int -> unit -> config
(** [shards] defaults to 2; workers = shards, heartbeat 10s, no
    deadline, 2 restarts, 0.05s backoff, 2s grace. *)

(** How a shard ended. *)
type status =
  | Done  (** final attempt returned normally (worker exit 0) *)
  | Interrupted
      (** shutdown: the body observed [cancel] (worker exit 130), or the
          shard never got to run before the cascade *)
  | Failed of string  (** restart budget exhausted; last failure named *)

type shard_report = {
  sh_id : int;
  sh_status : status;
  sh_attempts : int;  (** attempts actually started *)
  sh_kills : int;  (** supervisor kills (heartbeat / deadline) *)
}

type report = {
  rp_merge : Shard.merge_report;  (** merged from {e all} shard files *)
  rp_shards : shard_report list;  (** in shard order *)
  rp_restarts : int;  (** total re-queues across shards *)
  rp_interrupted : bool;  (** [cancel] tripped during the run *)
  rp_wall : float;  (** coordinator wall-clock seconds *)
}

val run :
  ?config:config ->
  ?cancel:Robust.Cancel.t ->
  base:string ->
  seed:int ->
  body:(ctx -> unit) ->
  unit ->
  report
(** Fork, supervise, restart, merge.  [base] and [seed] fix the
    assignments ({!Shard.make}); [body] runs in each child.  Exceptions
    escaping [body] in a child become exit code 70 and count as a
    failure (restartable); the coordinator itself never raises on
    worker failure or damaged checkpoints. *)

val run_inline :
  ?config:config ->
  ?cancel:Robust.Cancel.t ->
  base:string ->
  seed:int ->
  body:(ctx -> unit) ->
  unit ->
  report
(** The fork-free reference execution: the same shard bodies, run
    sequentially in this process ([forked = false], one attempt each,
    no supervision), merged identically.  An exception from [body]
    marks that shard [Failed] and the run continues; a tripped [cancel]
    marks the remaining shards [Interrupted]. *)

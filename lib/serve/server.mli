(** The [syno serve] daemon: a Unix-domain-socket operator service.

    One long-lived process amortizes lowering, static verification and
    differential validation across every client (the ROADMAP's
    synthesize-once/reuse-forever economics), fronted by the
    robustness primitives this repo already owns:

    - every request carries a deadline riding a {!Robust.Cancel} child
      token parented on the server's work root — an overrun produces a
      typed [timeout] response, never a hung connection;
    - a bounded {!Admission} queue sheds excess load with an explicit
      [overloaded] + retry-after response once depth or in-flight
      bytes cross the limit — backpressure instead of OOM;
    - a cold [eval] is admitted by {!Validate.Admit.check}, the gate
      search uses: counterexample replay, the static verifier and one
      {!Validate.Differential.check_full} at the request's valuation,
      and nothing else.  The reference output's sum is the answered
      [checksum]; the specialized kernel the daemon serves is the
      check's fourth backend, cross-checked against the reference
      with its forward time answered as [spec] (negative when
      certification declined);
    - each cold request, replay included, runs under {!Robust.Guard}
      and the request's deadline: a poisoned operator yields a typed
      error (and the gate distills it into the counterexample corpus,
      so replay rejects it next time) while the process keeps serving.
      A gate rejection is answered from its first attempt; only an
      exception or an overrun is retried;
    - the result {!Cache} persists with the atomic-fsync-rename
      recipe, so a SIGKILLed daemon restarts warm;
    - SIGTERM drains gracefully (stop accepting, finish or cancel
      in-flight work by its deadline, flush, exit 0); SIGINT mirrors
      the CLI's exit-130 contract.

    Architecture: a single-threaded I/O loop owns the listening socket
    and every connection (select + non-blocking fds + a self-pipe);
    [workers] domains execute admitted requests and hand responses
    back through an outbox.  Workers never touch a socket. *)

type config = {
  socket_path : string;
  cache_path : string option;  (** [None]: in-memory cache only *)
  cache_capacity : int;
  cache_every : int;  (** puts between cache snapshots *)
  corpus_path : string option;  (** counterexample corpus to load/extend *)
  max_depth : int;  (** admission: queued-request bound *)
  max_inflight_bytes : int;  (** admission: in-flight payload bound *)
  retry_after : float;  (** hinted to shed clients, seconds *)
  default_deadline : float;  (** per-request deadline when unspecified *)
  max_deadline : float;  (** clamp on client-requested deadlines *)
  workers : int;  (** evaluation domains *)
  max_connections : int;
  drain_grace : float;
      (** seconds after drain starts before in-flight work is
          force-cancelled (it still gets a typed response) *)
  guard : Robust.Guard.policy;  (** per-request containment policy *)
}

val default_config : socket:string -> config

val run :
  ?cancel:Robust.Cancel.t ->
  ?signals:bool ->
  ?on_ready:(unit -> unit) ->
  config ->
  int
(** Serve until drained or interrupted; returns the process exit code
    (0 graceful drain, 130 interrupt, 2 startup failure).  [signals]
    (default true) installs the SIGTERM/SIGINT/SIGPIPE handlers —
    disable when embedding.  [cancel] is an external drain trigger
    equivalent to SIGTERM.  [on_ready] fires once the socket is bound
    and listening. *)

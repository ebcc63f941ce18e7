(** Exception containment for candidate evaluation.

    The search evaluates thousands of synthesized candidates, and in
    the real system (tuning frameworks such as AutoTVM, or Syno's own
    distributed search) individual evaluations routinely fail — invalid
    lowerings raise, training diverges to NaN, measurements time out —
    without aborting the run.  [Guard.run] wraps one evaluation thunk
    with that policy: every failure is caught and classified, failed
    attempts are retried a bounded number of times with deterministic
    exponential backoff, and the final outcome reports exactly what
    happened so callers can quarantine the candidate and keep going. *)

(** Why an attempt failed. *)
type kind =
  | Eval_error of string  (** the thunk raised; payload is [Printexc.to_string] *)
  | Non_finite  (** the thunk returned NaN or an infinity *)
  | Timeout  (** the attempt exceeded the wall-clock budget *)
  | Injected  (** a fault delivered by {!Inject} *)
  | Over_budget of string
      (** the candidate's estimated peak resource use exceeds the
          admission budget (rejected before any allocation) *)
  | Backend_mismatch of string
      (** the differential validator caught the lowering backends
          disagreeing (or producing NaN/Inf on finite inputs) *)
  | Diverged of string
      (** a training sentinel aborted the evaluation: NaN/Inf loss or
          sustained loss blow-up *)
  | Static_violation of string
      (** the static IR verifier ({!Analysis.Verify}) disproved a
          bounds obligation or the lint pass found a structural error —
          rejected before any tensor allocation *)
  | Counterexample of string
      (** the candidate failed replay against a persisted
          counterexample from the corpus (a previously distilled
          differential or static failure) — the cheapest permanent
          rejection of all *)

val kind_label : kind -> string
(** Stable short name ([eval_error], [non_finite], [timeout],
    [injected], [over_budget], [backend_mismatch], [diverged],
    [static_violation], [counterexample]) for aggregation and
    serialization. *)

val kind_detail : kind -> string
(** The human-readable half of a kind: the carried message, or a fixed
    phrase for the kinds that carry none. *)

val permanent : kind -> bool
(** Whether the failure is a deterministic property of the candidate
    ([Over_budget], [Backend_mismatch], [Diverged], [Static_violation],
    [Counterexample]): such failures are never retried — every attempt
    would fail identically. *)

exception Reject of kind
(** Raise from inside an evaluation thunk to classify the failure
    precisely.  {!run} records the carried kind verbatim (instead of
    wrapping it as [Eval_error]); a {!permanent} kind short-circuits
    the retry schedule. *)

type policy = {
  retries : int;  (** additional attempts after the first; >= 0 *)
  backoff : float;  (** seconds before the first retry; 0 = no waiting *)
  backoff_factor : float;  (** multiplier between consecutive retries *)
  max_backoff : float;  (** cap on any single delay, seconds *)
  jitter : float;
      (** relative spread of seeded jitter in [0, 1]: each delay is
          scaled by a deterministic factor in [1 - jitter/2,
          1 + jitter/2].  0 = the exact exponential schedule. *)
  jitter_seed : int;  (** seed of the jitter stream *)
  timeout : float option;  (** per-attempt wall-clock budget, seconds *)
}

val default_policy : policy
(** 2 retries, no backoff delay, no jitter, no timeout. *)

val policy :
  ?retries:int ->
  ?backoff:float ->
  ?backoff_factor:float ->
  ?max_backoff:float ->
  ?jitter:float ->
  ?jitter_seed:int ->
  ?timeout:float ->
  unit ->
  policy
(** {!default_policy} with fields overridden.
    @raise Invalid_argument if [jitter] is outside [0, 1]. *)

val delay : ?key:string -> policy -> retry:int -> float
(** Seconds slept before retry number [retry] (numbered from 1): the
    base schedule [min max_backoff (backoff *. backoff_factor ^ (retry
    - 1))], scaled by seeded jitter when [policy.jitter > 0] (and
    re-capped at [max_backoff]).

    The jitter factor is a pure splitmix64 hash of [(jitter_seed, key,
    retry)], so the whole schedule is still deterministic and
    bit-for-bit reproducible under a fixed seed — but {e decorrelated}
    across keys: concurrent callers that fail together no longer retry
    in lockstep and stampede the shared resource they just overloaded.
    [key] (default the empty string) should identify the caller, e.g. the
    candidate signature or request id. *)

val delays : ?key:string -> policy -> float list
(** The full schedule: [delay] for retries [1 .. retries]. *)

type outcome = {
  result : (float, kind) Stdlib.result;
      (** the first successful value, or the last failure *)
  attempts : int;  (** total attempts made, >= 1 *)
  failures : kind list;  (** one entry per failed attempt, oldest first *)
  slept : float;  (** total backoff seconds *)
}

val run :
  ?policy:policy ->
  ?inject:Inject.t ->
  ?sleep:(float -> unit) ->
  ?now:(unit -> float) ->
  ?cancel:Cancel.t ->
  key:string ->
  (Cancel.t -> float) ->
  outcome
(** [run ~key f] evaluates [f] under the policy.  [key] identifies the
    candidate for fault injection.

    [f] receives the attempt's cancellation token.  When the policy has
    a timeout, the token carries a {e preemptive} deadline ([now () +
    timeout], evaluated on [now]): a thunk that polls it
    ({!Cancel.check}) is stopped mid-flight with overrun bounded by its
    poll interval, and the resulting [Cancel.Cancelled] is classified
    as [Timeout].  The post-hoc clock check is kept for thunks that
    never poll.  An exception raised {e after} the budget expired is
    also classified as [Timeout] (the overrun is the root cause), not
    [Eval_error].

    [cancel] is the external (shutdown) token: it parents the attempt
    token, is checked before every attempt, and — unlike a deadline
    trip — its [Cancel.Cancelled] is {e re-raised} so the caller's
    search loop can stop at its own safe point.

    Otherwise no exception from [f] escapes: it is recorded as
    [Eval_error] ([Injected] for {!Inject.Fault}, the carried kind for
    {!Reject}) and retried unless the kind is {!permanent}.  [sleep]
    (default [Unix.sleepf]) and [now] (default [Unix.gettimeofday]) are
    injectable so tests can verify the backoff schedule, the timeout
    classification, and deadline preemption without real waiting. *)

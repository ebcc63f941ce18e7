(** Monte Carlo Tree Search over partial pGraphs (\u{00a7}7.2).

    The search space is a Markov decision process whose states are
    partial pGraphs and whose actions are canonical primitive
    applications; terminal states are complete operators.  Selection
    uses UCB1; rollouts sample shape-distance-guided random completions;
    rewards come from a caller-provided evaluator (every search in the
    [syno] layer passes {!Reward}'s analytic accuracy proxy; none
    trains).  All completed operators seen during the search are
    recorded and returned with their best observed reward.

    {b Fault tolerance.}  Every reward call is routed through
    {!Robust.Guard}: exceptions, NaN/infinite rewards, per-candidate
    wall-clock overruns, and injected faults are contained, retried per
    the policy, and — if every attempt fails — the candidate is
    {e quarantined}: recorded with a configurable penalty reward, never
    re-evaluated, ranked after every healthy candidate, and accounted
    for in the {!failure_stats} returned by {!search_run}.  A
    {!Checkpoint.sink} persists the reward memo at a configurable
    cadence, and [resume] pre-seeds it so a killed search replays to the
    same results without repeating completed evaluations.

    {b Parallelism.}  Search is root-parallel: given a pool of size [k],
    [k] independent trees split the iteration budget, run one per
    domain, and their found tables are merged by operator signature.
    Tree 0 is driven by the caller's generator and the others by
    generators split off it up front, so the result is a deterministic
    function of the generator and [k].  Without a pool (or with a pool
    of size 1) the search is a single tree on the calling domain: no
    domain is spawned and nothing is merged. *)

type config = {
  iterations : int;  (** total, across every tree *)
  exploration : float;  (** UCB1 constant, default sqrt 2 *)
  rollout_depth : int;
      (** maximum actions per rollout: the walk is cut off after this
          many steps even when the global primitive budget would allow
          more *)
}

val default_config : ?iterations:int -> unit -> config

type result = {
  operator : Pgraph.Graph.operator;
  reward : float;  (** the penalty reward if quarantined *)
  visits : int;  (** times this operator was reached *)
  quarantined : bool;  (** every guarded attempt failed *)
}

(** Per-run failure accounting.  [attempts] counts every invocation of
    the reward thunk (including attempts suppressed by fault
    injection); [retries] the attempts beyond each candidate's first;
    [failed_attempts] the failed ones, keyed by {!Robust.Guard.kind_label}
    and sorted, so every injected fault is accounted for. *)
type failure_stats = {
  evaluations : int;  (** distinct candidates scored successfully *)
  quarantined : int;  (** distinct candidates that exhausted all attempts *)
  attempts : int;
  retries : int;
  failed_attempts : (string * int) list;
  backoff_seconds : float;
  checkpoint_writes : int;
}

type run = { results : result list; stats : failure_stats }

val search_run :
  ?config:config ->
  ?pool:Par.Pool.t ->
  ?guard:Robust.Guard.policy ->
  ?inject:Robust.Inject.t ->
  ?quarantine_reward:float ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.entry list ->
  ?admit:(Pgraph.Graph.operator -> (unit, Robust.Guard.kind) Stdlib.result) ->
  ?cancel:Robust.Cancel.t ->
  ?root_filter:(Pgraph.Prim.t -> bool) ->
  Enumerate.config ->
  reward:(cancel:Robust.Cancel.t -> Pgraph.Graph.operator -> float) ->
  rng:Nd.Rng.t ->
  unit ->
  run
(** Results sorted by decreasing reward (quarantined candidates last,
    NaN rewards ranked as -inf, remaining ties broken on the operator
    signature), deduplicated by operator signature.  [reward] is called
    at most once per distinct signature — including signatures preloaded
    via [resume] — and repeat encounters reuse the memoized score and
    only bump the visit counter.  Resumed entries the trajectory never
    reaches again keep living in the memo/checkpoint but are not
    results of this run (their visit count is 0).

    [admit] is the admission gate (e.g. {!Validate.Admit.gate} composed
    by the API layer: resource budgets plus differential validation),
    consulted once per distinct signature {e before} the reward thunk.
    A rejection is a deterministic verdict on the candidate, so it is
    quarantined immediately — one recorded attempt, no retries, and the
    reward thunk (and any allocation it would do) never runs; the
    rejection kind flows into [failed_attempts] like any other failure.

    [cancel] is the external shutdown token: it is polled at every
    iteration boundary (and parents every guarded attempt's deadline
    token), and a trip makes the search {e return} the results
    gathered so far rather than raise — the caller can still flush
    the checkpoint and report a partial top-k.  [reward] receives the
    attempt's token ([~cancel]); thunks that poll it are preempted
    within one poll interval of a deadline or shutdown.

    [root_filter] restricts the {e root} action set (the first
    primitive applied to the empty pGraph); every deeper level stays
    complete.  {!Shard} uses it to partition the search space across
    worker processes by seeded root-action signature — each shard
    explores exactly the subtrees under the root actions it owns.

    [pool] of size [k > 1] runs [k] root-parallel trees on it.  Tree
    [i] runs [config.iterations / k] iterations, plus one when
    [i < config.iterations mod k]; tree 0 keeps [rng] and trees
    [1..k-1] take [Nd.Rng.split rng] in order, before any tree starts.
    Every tree gets the same [resume], [admit], [cancel] and
    [root_filter].  The per-tree tables are merged by signature: best
    reward (NaN-safe), summed visits, and a healthy evaluation overrides
    a quarantine verdict; a merged result carries the operator its
    reward was scored on.  Failure statistics are summed over trees.
    The at-most-once [reward] contract then holds per tree: two trees
    that meet the same signature each score it once.  [reward] and
    [admit] must be safe to call from several domains (the analytic
    proxy of {!Reward} and {!Validate.Admit.gate} are); the checkpoint
    sink may be shared, it serializes internally.  On cancellation
    each tree stops at its own next iteration boundary, and the partial
    tables still merge.  Without [pool], or with a pool of size 1, the
    search is exactly one tree on the calling domain, driven by [rng]
    itself.

    Defaults: [guard = Robust.Guard.default_policy] (2 retries, no
    backoff, no timeout), no injection, [quarantine_reward = 0.0], no
    checkpointing, admit-everything gate. *)

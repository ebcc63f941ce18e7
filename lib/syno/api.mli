(** End-to-end Syno facade: substitute operators into backbones, model
    their latency, train them on the proxy task, and run the MCTS
    search of Algorithm 1. *)

type layer_op = { op : Pgraph.Graph.operator; valuation : Shape.Valuation.t }

val baseline_layer_op : Backbones.Convspec.t -> layer_op
(** The standard operator at this layer: dense, grouped, or depthwise
    convolution according to the spec. *)

val substituted_layer_op : Zoo.entry -> Backbones.Convspec.t -> layer_op
(** The candidate operator instantiated at this layer's shape, falling
    back to the baseline when the layer is not a substitution target
    (depthwise/grouped) or the candidate's coefficient sizes do not
    divide the layer's dimensions — mirroring the paper, which replaces
    only the standard convolutions. *)

val model_latency_ms :
  ?substitute:Zoo.entry ->
  Backbones.Models.t ->
  Perf.Compiler_model.t ->
  Perf.Platform.t ->
  float

val model_flops : ?substitute:Zoo.entry -> Backbones.Models.t -> int
(** Staged (materialized-reduction) FLOPs over all layers. *)

val speedup :
  Zoo.entry -> Backbones.Models.t -> Perf.Compiler_model.t -> Perf.Platform.t -> float
(** Baseline latency / substituted latency. *)

(** {1 Proof-guided specialization} *)

type specialize_mode = [ `Auto | `Off | `On ]
(** Whether eval paths run the certified specialized kernel
    ({!Lower.Specialize}) instead of the interpreters: [`Off] never;
    [`Auto] and [`On] follow {!Analysis.Certify.specialize}'s
    profitability rule ([`Auto] falls back to the interpreters when
    certification declines, [`On] makes the rejection an error). *)

val specialize_mode_to_string : specialize_mode -> string
val specialize_mode_of_string : string -> specialize_mode option

val specialize_operator :
  ?mode:specialize_mode ->
  Pgraph.Graph.operator ->
  Shape.Valuation.t ->
  (Lower.Specialize.t option, Robust.Guard.kind) result
(** The full proof-to-speed pipeline for one operator: compile the
    staged program, then {!Analysis.Certify.specialize} it (build the
    {!Analysis.Regions} certificate, validate it, and compile the
    specialized executor).
    [Ok None] means specialization was declined (mode [`Off], or
    [`Auto] and not profitable); [Error] carries the typed
    certification rejection (mode [`On] only — [`Auto] falls back). *)

val specialized_forward :
  ?mode:specialize_mode ->
  Pgraph.Graph.operator ->
  Shape.Valuation.t ->
  (input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t) option
(** {!specialize_operator} as a forward closure, for
    {!Nn.Layer.of_operator}'s [?forward]; [None] whenever no
    specialized kernel is available. *)

(** {1 Accuracy evaluation on the synthetic proxy task} *)

val proxy_batch_size : int
(** The batch size {!proxy_layer} compiles its operators for. *)

val proxy_layer :
  ?specialize:specialize_mode ->
  Zoo.entry ->
  Nd.Rng.t ->
  Backbones.Proxy.stage_shape ->
  Nn.Layer.t
(** Compile the entry at a proxy stage shape as a trainable layer.
    [specialize] (default [`Off]) swaps the forward pass for the
    certified specialized kernel; the backward pass stays the
    reference one. *)

val train_entry :
  ?epochs:int ->
  ?lr:float ->
  ?clip_norm:float ->
  ?sentinel:Nn.Train.sentinel ->
  ?specialize:specialize_mode ->
  rng:Nd.Rng.t ->
  Zoo.entry ->
  Dataset.Synth_vision.t ->
  Nn.Train.history
(** Train the proxy backbone with the entry substituted into both
    operator stages.  [clip_norm] enables global gradient-norm
    clipping; [sentinel] (default: finite check on, factor 10,
    patience 2) aborts on NaN/Inf loss or sustained divergence — check
    [history.Nn.Train.outcome]. *)

(** {1 Search} *)

type candidate = {
  operator : Pgraph.Graph.operator;
  signature : string;
  reward : float;
  flops : int;
  params : int;
  quarantined : bool;  (** every guarded evaluation attempt failed *)
}

type search_run = {
  candidates : candidate list;
  failures : Search.Mcts.failure_stats;
  admission : Validate.Admit.stats option;
      (** admission-gate statistics; [None] when no gate was configured *)
  corpus_stats : Validate.Corpus.stats option;
      (** counterexample-corpus statistics; [None] when no corpus was
          attached *)
}

val default_validation_valuations : Shape.Valuation.t list
(** The tiny shape differential validation runs at by default (four
    small forward passes per candidate instead of one search-sized
    one). *)

val search_conv_operators_run :
  ?iterations:int ->
  ?max_prims:int ->
  ?flops_budget_ratio:float ->
  ?domains:int ->
  ?guard:Robust.Guard.policy ->
  ?inject:Robust.Inject.t ->
  ?quarantine_reward:float ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?on_corrupt:[ `Fail | `Restart ] ->
  ?max_bytes:int ->
  ?max_flops:int ->
  ?validate:bool ->
  ?validate_config:Validate.Differential.config ->
  ?validation_valuations:Shape.Valuation.t list ->
  ?static_gate:bool ->
  ?corpus:string ->
  ?corpus_readonly:bool ->
  ?cancel:Robust.Cancel.t ->
  rng:Nd.Rng.t ->
  valuations:Shape.Valuation.t list ->
  unit ->
  search_run
(** MCTS over the convolution signature
    [[N, C_out, H, W] -> [N, C_in, H, W]] with the analytic accuracy
    proxy as reward and a FLOPs budget relative to the standard
    convolution (default 1.0x).  Returns candidates sorted by reward
    (quarantined candidates last) together with per-run failure
    statistics.

    [domains] (default 1) sizes a private domain pool, and the search
    runs that many root-parallel trees on it
    ({!Search.Mcts.search_run} with [~pool]): [iterations] is the total
    budget, split across the trees, and the candidates are a
    deterministic function of [rng] and [domains].  With [domains = 1]
    no domain is spawned and this is the sequential search.

    Fault tolerance: every reward call runs under [guard] (default
    {!Robust.Guard.default_policy}); [inject] enables deterministic
    fault injection; candidates whose attempts all fail are quarantined
    at [quarantine_reward] (default 0).  [checkpoint] names a file the
    reward memo is serialized to every [checkpoint_every] (default 50)
    new evaluations plus once at the end; [resume] preloads a
    previously written file (a missing file is a fresh start), so a
    killed search rerun with the same seed reproduces the uninterrupted
    results without repeating completed evaluations.  A damaged resume
    file fails with a clear error by default; [on_corrupt:`Restart]
    ignores it and starts fresh instead.

    Admission (the {!Validate} layer): [max_bytes] / [max_flops] bound
    each candidate's estimated peak intermediate bytes and FLOPs under
    [valuations] — over-budget candidates are quarantined as
    [over_budget] {e before any tensor allocation}.  [validate] runs
    every admitted candidate through all four lowering backends
    ({!Validate.Differential}: reference, einsum, staged and the
    certified specialized kernel) on seeded inputs at
    [validation_valuations]; disagreement beyond
    [validate_config]'s tolerance quarantines it as [backend_mismatch].
    Whenever a gate is configured, static bounds verification
    ({!Analysis.Verify}) runs first — interval arithmetic only, no
    tensor allocation — quarantining provably out-of-bounds gathers as
    [static_violation]; [static_gate:false] disables that stage.
    Admission rejections appear in [failures.failed_attempts]; gate
    cost and per-stage rejection counts in [admission].

    [corpus] names a persistent counterexample corpus
    ({!Validate.Corpus}): candidates are replayed against its recorded
    failures {e before} any other stage (rejections surface as
    [counterexample]), and every static/differential failure is
    distilled back into it — the CEGIS loop.  A missing file is an
    empty corpus; a damaged one is quarantined aside with a warning,
    never fatal.  [corpus_readonly] replays without recording new
    entries.  Replay/distillation counts are in [corpus_stats].

    [cancel] is the shutdown token (the CLI's signal handlers trip it):
    the search stops at the next iteration boundary and {e returns} the
    candidates found so far — partial top-k plus stats — after flushing
    the checkpoint sink, so an interrupted run resumed from its
    checkpoint replays to the uninterrupted results. *)

(** {2 Sharded multi-process search}

    The paper's search runs on a fleet of workers; these entry points
    reproduce that with OS processes on one host.  The space is
    partitioned by seeded root-action signature ({!Search.Shard}), each
    shard searched by a forked worker under a crash-tolerant supervisor
    ({!Search.Coordinator}), and, once the coordinator returns, the
    per-shard checkpoints merged into one ranked candidate list (dedup
    by signature, quarantine-wins) and the per-shard corpora into the
    main corpus, both through {!Robust.Durable.merge_shards}. *)

type sharded_run = {
  sh_candidates : candidate list;
      (** merged from every shard's checkpoint, ranked like
          {!search_conv_operators_run} output *)
  sh_report : Search.Coordinator.report;
      (** per-shard statuses and restart counts *)
  sh_merge : Search.Checkpoint.entry Robust.Durable.merged;
      (** the per-shard checkpoint merge: which shard files loaded,
          were missing or were quarantined, and the signature conflicts
          resolved ([mg_duplicates]) *)
  sh_corpus : Validate.Corpus.entry Robust.Durable.merged option;
      (** the per-shard corpus merge, its [mg_entries] being the main
          corpus after the merge; [None] without a writable corpus *)
}

val search_conv_operators_sharded_run :
  ?iterations:int ->
  ?max_prims:int ->
  ?flops_budget_ratio:float ->
  ?shards:int ->
  ?workers:int ->
  ?max_restarts:int ->
  ?backoff:float ->
  ?heartbeat_timeout:float ->
  ?shard_deadline:float ->
  ?guard:Robust.Guard.policy ->
  ?inject:Robust.Inject.t ->
  ?quarantine_reward:float ->
  ?checkpoint_every:int ->
  ?max_bytes:int ->
  ?max_flops:int ->
  ?validate:bool ->
  ?validate_config:Validate.Differential.config ->
  ?validation_valuations:Shape.Valuation.t list ->
  ?static_gate:bool ->
  ?corpus:string ->
  ?corpus_readonly:bool ->
  ?kill_after:int ->
  ?inline:bool ->
  ?cancel:Robust.Cancel.t ->
  checkpoint_base:string ->
  seed:int ->
  valuations:Shape.Valuation.t list ->
  unit ->
  sharded_run
(** The same convolution search space as {!search_conv_operators_run},
    split into [shards] (default 2) root-action partitions and run as
    forked worker processes supervised by {!Search.Coordinator.run}.
    [iterations] (default 2000) is the {e total} budget, split evenly
    per shard; each shard derives its own RNG seed and fault-injection
    stream ({!Robust.Inject.split}) from [seed] and its id, checkpoints
    to [checkpoint_base ^ ".shard<i>"] every [checkpoint_every]
    (default 1) evaluations, and resumes from its own checkpoint when
    restarted after a crash.

    Supervision knobs map onto {!Search.Coordinator.config}:
    [workers] concurrent processes (default [shards]),
    [heartbeat_timeout] seconds of silence before a kill,
    [shard_deadline] per-attempt wall clock, [max_restarts] per shard
    with exponential [backoff]; the shutdown cascade waits the default
    [grace] between SIGTERM and SIGKILL.

    [inline] (default false) runs the fork-free reference execution
    instead ({!Search.Coordinator.run_inline}): same shards, same
    seeds, same merge, sequential in this process.  The determinism
    guarantee — asserted by [bench shard] and the test suite — is that
    a forked run, {e even with workers killed and restarted
    mid-search}, produces the same merged candidate list as the inline
    run.  [kill_after] is the fault-injection hook behind that
    assertion: each shard's first forked attempt SIGKILLs itself after
    that many reward evaluations (later attempts, and inline runs, are
    unaffected).

    A shard whose checkpoint file is damaged is restarted fresh by its
    worker and quarantined-but-skipped by the merge
    ([sh_merge.mg_quarantined]); the run never aborts for it.
    [cancel] cascades shutdown to every worker: each flushes its
    checkpoint and exits 130, and the partial shards still merge. *)

val default_search_valuations : Shape.Valuation.t list

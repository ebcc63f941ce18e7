(** Search-space sharding and checkpoint merging.

    The paper runs its MCTS on a fleet of worker machines; this module
    is the pure half of our reproduction of that setup: it decides
    {e what each worker owns} and {e how their results combine}, while
    {!Coordinator} owns the processes.

    {b Partitioning.}  The space is split by {e root action}: the first
    primitive applied to the empty pGraph.  Each root action is hashed
    together with the run seed and assigned to exactly one of [shards]
    shards; a shard's search restricts the MCTS root to its owned
    actions ({!Mcts.search_run}'s [root_filter]) and explores the
    subtrees below them completely.  The assignment depends only on
    [(seed, shards, action)], so every process — and a fork-free
    re-execution — computes the same partition.

    {b Merging.}  Workers publish atomic per-shard checkpoints
    ({!Checkpoint}); once the processes are done, {!load_and_merge}
    folds them into one reward memo through
    {!Robust.Durable.merge_shards}, which owns the per-shard file name,
    the load and the merge report.  This module supplies only the
    policy.  Entries are deduplicated by operator signature (distinct
    root actions can reach the same canonical operator).  On a conflict
    the rule is {e quarantine wins}: a quarantine verdict from any shard
    is a refusal of the candidate and survives the merge, while of two
    clean entries the one with the NaN-safe best reward survives whole;
    visit counts are summed.  Corrupt, truncated, or missing shard
    files are {e quarantined as files}: reported, skipped, never fatal.

    {b Determinism.}  A shard's trajectory is a deterministic function
    of its derived seed, its partition, and its (deterministic) reward
    memo, and resuming from its own checkpoint replays to identical
    results; the merge is deterministic in shard order.  Hence an
    N-shard run — even one with worker kills and restarts — merges to
    exactly the result of running the same N shard searches
    sequentially in one process ({!Coordinator.run_inline}). *)

type assignment = {
  shard_id : int;  (** in [[0, shards)] *)
  shards : int;
  seed : int;  (** the run seed the partition is keyed on *)
  path : string;  (** this shard's checkpoint file *)
}

val make : base:string -> seed:int -> shards:int -> shard_id:int -> assignment
(** Assignment for one shard; [path] is
    {!Robust.Durable.shard_path}[ ~base ~shard_id].  Raises
    [Invalid_argument] unless [0 <= shard_id < shards]. *)

val derive_seed : seed:int -> shard_id:int -> int
(** The RNG seed for shard [shard_id]'s search: a splitmix64 mix of
    [(seed, shard_id)], so shards never share a random stream yet the
    whole fleet is reproducible from one seed. *)

val owner : seed:int -> shards:int -> string -> int
(** Which shard owns a root-action key (its {!Pgraph.Trace_io}
    rendering).  Pure, stable across processes (no [Hashtbl.hash]). *)

val root_filter : assignment -> Pgraph.Prim.t -> bool
(** The {!Mcts.search_run} [root_filter] for this assignment: accept
    exactly the root actions {!owner} maps to [shard_id]. *)

(** {1 Merging shard checkpoints} *)

val merge_entries : Checkpoint.entry list list -> Checkpoint.entry list
(** Merge per-shard entry lists (in shard order) into one memo.  Dedup
    by signature; quarantine-wins; a clean/clean conflict keeps the
    entry with the best reward whole (a NaN never wins, a tie keeps the
    earlier shard's); visits summed.  Result sorted by signature. *)

val load_and_merge : base:string -> shards:int -> Checkpoint.entry Robust.Durable.merged
(** {!Robust.Durable.merge_shards} with the checkpoint codec and
    {!merge_entries}: [mg_duplicates] counts the signature conflicts
    resolved.  Never raises on damaged files. *)

val rank : Checkpoint.entry list -> Checkpoint.entry list
(** Result ordering for a merged memo, matching {!Mcts} ranking:
    quarantined entries last, NaN rewards as -inf, reward descending,
    ties on signature. *)

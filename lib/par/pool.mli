(** Pool of worker domains for data-parallel loops.

    The pool is built on [Domain], [Mutex], and [Condition] only — no
    external dependencies.  A pool of size [n] owns [n - 1] worker
    domains; the calling domain participates in every loop, so size 1
    degenerates to a plain sequential loop with no synchronization.

    The pool runs one flat loop at a time (a nested call runs
    sequentially), so scheduling is one shared claim cursor: every
    participant, the caller and the workers alike, takes the next
    grain-sized range [lo, lo + grain) with an atomic fetch-and-add
    until the cursor passes the end of the loop.  The grain is
    auto-tuned per loop: the submitting domain times a small probe
    prefix of the body, derives the per-element cost, and picks a chunk
    size that amortizes claim overhead; when the measured grain says
    parallelism cannot pay (the remaining work is tiny, or only one
    hardware thread is available), the loop falls back to a sequential
    run on the caller — still polling cancellation periodically.

    Whatever the schedule, each loop body receives a disjoint range, so
    parallel results are bit-identical at any pool size whenever the
    body writes only to its own range and keeps per-element work
    self-contained (the einsum and MCTS callers are designed that way;
    see DESIGN.md). *)

type t

val parse_domains : string -> (int, string) Stdlib.result
(** Parse a [SYNO_DOMAINS] value: [Ok n] for a positive integer,
    [Error message] (in the CLI converter style) otherwise. *)

val num_domains : unit -> int
(** Detected parallelism: the [SYNO_DOMAINS] environment variable when
    set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  An invalid setting falls
    back to the recommended count and emits a one-line warning on
    stderr (once per process). *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of total size [max 1 domains]
    ([domains - 1] worker domains).  Default: [num_domains ()]. *)

val size : t -> int
(** Total parallelism of the pool (workers + calling domain). *)

val parallel_for :
  t -> ?cancel:Robust.Cancel.t -> n:int -> ?chunks:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~n body] runs [body lo hi] over disjoint
    subranges covering [0, n).  Chunking is picked by the granularity
    tuner (see above); [chunks] overrides it, forcing distribution
    into roughly [chunks] ranges of grain [n / chunks] even when the
    tuner would run sequentially — tests and callers with few heavy
    tasks use this.  Runs sequentially when the pool has size 1, when
    [n <= 1], when called from inside one of the pool's own workers
    (nested calls do not deadlock), when another domain already drives
    a loop on this pool, or after shutdown.

    A raising body aborts the loop: ranges not yet claimed are
    discarded, grains already in flight on other domains drain
    normally, and the first exception is re-raised in the caller once
    the loop has drained.  The failure is fully contained — the pool
    stays usable for subsequent loops, and waiting submitters are
    never stranded.

    [cancel] makes the loop cooperatively cancellable with exactly the
    same discipline: the token is polled at every range claim, a trip
    discards the unclaimed remainder, in-flight grains drain, and
    [Robust.Cancel.Cancelled] is raised in the caller after the drain
    (an exception from the body takes priority over cancellation).
    Every sequential fallback — size 1, nested, contended, and
    tuner-declined loops alike — also polls the token periodically
    between slices, so preemption latency stays bounded even when the
    pool cannot parallelize.  Every path polls once more after its last
    element has run, so a loop whose token trips at any point before it
    returns raises [Cancelled], whatever the pool's size or load; it
    returns normally only if the token never tripped. *)

val map : t -> ?cancel:Robust.Cancel.t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] with elements computed on
    the pool, one element per claim, so a handful of heavy jobs —
    parallel search trees, say — balance perfectly.  It skips the
    granularity tuner and boxes each result, so it suits few, heavy
    elements, not large arrays of cheap ones.  Order is preserved.
    [cancel] as in {!parallel_for}. *)

val shutdown : t -> unit
(** Join and free the worker domains.  Idempotent.  Later loops on the
    pool run sequentially on the caller. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    including on exceptions. *)

val get_default : unit -> t
(** A process-wide shared pool, created lazily at [num_domains ()] (or
    the size set by [set_default_domains]).  Library code that wants
    parallelism without threading a pool through its API (e.g.
    [Nd.Einsum.run]) uses this. *)

val set_default_domains : int -> unit
(** Fix the size of the default pool.  An existing default pool is
    retired: it is shut down immediately when idle, otherwise the
    shutdown is deferred until the loops currently running on it (from
    other threads) have drained — in-flight work is never cut short.
    Either way, loops submitted to the old pool after this call run
    sequentially.  This is what the [--domains] CLI flag calls. *)

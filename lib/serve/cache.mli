(** The daemon's LRU result cache, persisted crash-tolerantly.

    The paper's economics are synthesize-once/reuse-forever: lowering,
    static verification, differential validation and a reference
    forward pass cost milliseconds to seconds per operator, while a
    cache hit is a hash lookup.  The cache memoizes the {e outcome} of
    that pipeline — verdict, cost accounting, output checksum — keyed
    by [(operator signature, valuation)], so a repeated request never
    re-runs tensor work.

    The cache persists as a {!Robust.Durable} store (hex-float exact
    values, written on a cadence and at flush); a damaged snapshot is
    quarantined and the cache starts empty — {e never fatal}.  A
    SIGKILLed daemon restarts warm from its last snapshot.

    All operations are thread-safe (one mutex); worker domains hit the
    cache concurrently.  A snapshot is taken under that mutex (a fold
    and a sort) and rendered, written and fsynced after it is released,
    by the caller of the [put] or [flush] that took it
    ({!Robust.Durable.update}): [find] and the other workers never wait
    for a write.  When that [put] returns, a snapshot at least as new
    is on disk.  A SIGKILL loses at most the [put]s since the last
    completed write (fewer than [every], plus any made while a write
    was in flight); the file is always a whole snapshot. *)

type entry = {
  e_key : string;  (** [signature ^ "@" ^ valuation-token] *)
  e_verdict : string;  (** ["proved"] or ["padded"] (static bounds) *)
  e_flops : int;
  e_params : int;
  e_elements : int;  (** output elements differentially compared *)
  e_checksum : float;  (** reference forward-pass output sum *)
  e_cold_seconds : float;  (** wall time of the original cold evaluation *)
  e_spec_seconds : float;
      (** wall time of the certified specialized kernel's forward pass
          during that cold evaluation; negative when specialization was
          off or declined.  Snapshots written before this field existed
          load with [-1.0]. *)
}

type t

val create : ?capacity:int -> unit -> t
(** In-memory only (no backing file).  [capacity] (default 1024) is
    the entry bound; inserting past it evicts the least recently used
    entry. *)

val find : t -> string -> entry option
(** Bumps the entry's recency. *)

val put : t -> entry -> unit
(** Insert or refresh; counts toward the write cadence when the cache
    is file-backed.  The [put] that crosses the cadence writes the
    snapshot, outside the mutex, before it returns; a failed write
    raises and stays pending for the next [put]. *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** {1 Persistence} *)

val codec : entry Robust.Durable.codec
(** The entry codec; file order is least-recent-first. *)

type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

val string_of_error : error -> string

val of_string_result : ?capacity:int -> string -> (t, error) result

val save : path:string -> t -> unit
(** Atomic + durable ({!Robust.Durable.save}); the entries are taken
    under the mutex and written after it is released. *)

type open_report = Robust.Durable.open_report = {
  or_loaded : int;
  or_quarantined : (string * error) option;
}

val open_file : ?capacity:int -> ?every:int -> string -> t * open_report
(** Bind the cache to [path].  A missing file is an empty cache; a
    damaged one is quarantined aside.  [every] (default 16) is the
    number of [put]s between automatic atomic snapshots. *)

val flush : t -> unit
(** Write pending entries now (and an initial snapshot for a fresh
    file-backed cache), outside the mutex; returns once a snapshot
    holding every earlier [put] is on disk.  No-op for in-memory
    caches. *)

val writes : t -> int

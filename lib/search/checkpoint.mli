(** Search checkpointing: persist the memoized found-table.

    A search's durable state is exactly its reward memo — the map from
    operator signature to (operator, reward, quarantined) — because the
    MCTS trajectory is a deterministic function of the seed and the
    memoized rewards.  Serializing that table at a configurable cadence
    makes a killed search resumable: reloading the file pre-seeds the
    memo, already-scored candidates are never re-evaluated, and a
    fault-free resumed run reproduces the same results as an
    uninterrupted one (visit counters are recounted by the replayed
    trajectory, so they match too).

    Format (text, one [entry:] header per candidate followed by its
    {!Pgraph.Trace_io} block):
    {v
    syno-checkpoint v1
    entries: 2
    entry: reward 0x1.91p-1 visits 3 quarantined false
    entry: reward -0x1p0 visits 1 quarantined true reason static_violation
    syno-operator v1
    output: N C_out H W
    input: N C_in H W
    trace: Reduce(C_in); ...
    entry: ...
    v}
    Rewards are printed as hexadecimal floats so they round-trip
    exactly.  Writing, typed loading and the write cadence are
    {!Robust.Durable}'s. *)

type entry = {
  signature : string;
  operator : Pgraph.Graph.operator;
  reward : float;
  visits : int;
  quarantined : bool;
  reason : string option;
      (** why a quarantined entry was refused — a {!Robust.Guard}
          kind label (e.g. [static_violation]); single token, optional
          in the file format so pre-[reason] snapshots still load *)
}

val codec : entry Robust.Durable.codec
(** The entry codec; loads sort entries by signature. *)

val save : path:string -> entry list -> unit
(** Atomic write of a snapshot. *)

(** Why a snapshot failed to load (see {!Robust.Durable} for the
    rules).  Snapshots are written atomically, so any of these means
    the file was damaged {e after} a successful write (or is not a
    checkpoint at all) — resuming from it would silently drop
    completed evaluations, hence the typed refusal. *)
type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

val string_of_error : error -> string

val load_result : path:string -> (entry list, error) result
(** Parse a snapshot; each operator is rebuilt by replaying its trace.
    Entries are returned sorted by signature. *)

val load : path:string -> (entry list, string) result
(** [load_result] with the error rendered by {!string_of_error}. *)

(** {1 Cadence-driven sink}

    The sink accumulates every newly evaluated candidate and rewrites
    the snapshot once [every] new entries have arrived (plus a final
    {!flush}).  It is safe to share across the domains of a parallel
    search: notes are serialized by an internal mutex.  The snapshot
    is taken under that mutex and written after it is released, by the
    domain whose {!note} took it ({!Robust.Durable.update}). *)

type sink

val sink : path:string -> ?every:int -> unit -> sink
(** [sink ~path ~every ()] writes after every [every] new candidates
    (default 50, clamped to >= 1). *)

val preload : sink -> entry list -> unit
(** Seed the sink with previously persisted entries {e without}
    counting toward the cadence.  A resumed search must preload the
    entries it resumed from, so every snapshot it writes still carries
    the full history — otherwise a second kill/resume cycle would
    silently shrink the memo.  Entries already in the sink (noted since)
    win over preloaded ones. *)

val note : sink -> entry -> unit
(** Record a candidate (replacing any previous entry with the same
    signature) and write the snapshot when the cadence is reached. *)

val flush : sink -> unit
(** Write the snapshot now if anything changed since the last write (or
    if nothing was ever written, so the file always exists). *)

val writes : sink -> int
(** Snapshots written so far. *)

(** A persistent, crash-tolerant counterexample corpus (CEGIS-style
    admission feedback).

    Every failure the expensive gates find — a differential backend
    mismatch ({!Differential}), a statically disproven bounds
    obligation ({!Analysis.Verify}) — is {e distilled} into a minimal
    concrete record: the offending operator, the valuation and derived
    tensor seed it failed at, the diverging backend pair, and an
    expected-vs-got summary.  The corpus persists those records as a
    {!Robust.Durable} store (hex-float exact; damaged files quarantined
    — never fatal) and {e replays} them against
    future candidates as the cheapest admission stage of all: the
    longer the search runs, the sharper the gate.

    {b Replay semantics.}  Candidates are matched by structural
    {!fingerprint} (the sorted primitive multiset of the trace).  A
    candidate whose fingerprint matches no entry passes in O(1).  An
    exact signature match is rejected immediately — zero tensor work;
    this is the re-encounter fast path.  A family sibling (same
    fingerprint, different signature) is concretely re-executed on each
    recorded counterexample: differential entries re-run the single
    recorded backend pair on the recorded seeded tensors
    ({!Differential.replay_pair}), static entries re-run the interval
    verifier at the recorded valuation.  Healthy siblings pass — replay
    never rejects a candidate that survives the recorded input. *)

type origin = Differential | Static

val origin_label : origin -> string

type entry = {
  ce_operator : Pgraph.Graph.operator;  (** the operator that failed *)
  ce_signature : string;  (** its canonical signature (derived) *)
  ce_fingerprint : string;  (** its structural fingerprint (derived) *)
  ce_origin : origin;  (** which gate distilled it *)
  ce_valuation : Shape.Valuation.t;  (** the valuation it failed at *)
  ce_seed : int;  (** derived tensor RNG seed ({!Differential.derive_seed} output); 0 for static *)
  ce_tolerance : float;  (** comparison tolerance; 0 for static *)
  ce_backend : Differential.backend option;  (** the diverging backend pair *)
  ce_detail : string;  (** one-line human summary of the failure *)
  ce_abs_err : float;  (** worst absolute error observed (differential) *)
  ce_fail : (int * float * float) option;
      (** first failing flat index as [(index, expected, got)] *)
}

val fingerprint : Pgraph.Graph.operator -> string
(** Sorted multiset of {!Pgraph.Trace_io.prim_to_string} renderings —
    the family key replay matching uses. *)

val ident : entry -> string
(** Dedup identity: signature, origin, valuation, seed, and backend —
    everything that determines what replay would execute. *)

val of_differential : tolerance:float -> Pgraph.Graph.operator -> Differential.failure -> entry
(** Distill a structured differential failure ({!Differential.check_full}). *)

val of_static :
  Pgraph.Graph.operator -> Shape.Valuation.t -> Analysis.Verify.diagnostic -> entry
(** Distill a static bounds violation at the valuation it was proven at. *)

(** {1 Serialization} *)

val codec : entry Robust.Durable.codec
(** The entry codec; loads sort entries by {!ident}. *)

type error = Robust.Durable.error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

val string_of_error : error -> string

val to_string : entry list -> string
val of_string_result : string -> (entry list, error) result
(** Entries are rendered with hex floats, so a round trip is exact. *)

val save : path:string -> entry list -> unit
(** Atomic + durable ({!Robust.Durable.save}). *)

val load_result : path:string -> (entry list, error) result

(** {1 The live corpus} *)

type t
(** An in-memory corpus optionally bound to a file, with thread-safe
    add/replay and cadence-driven atomic persistence. *)

type open_report = Robust.Durable.open_report = {
  or_loaded : int;
  or_quarantined : (string * error) option;
}

val open_file : ?readonly:bool -> ?every:int -> string -> t * open_report
(** Bind a corpus to [path] ({!Robust.Durable.open_file}: a missing
    file is empty, a damaged one is quarantined and the corpus starts
    empty).  [readonly] loads without ever writing or moving the file
    (adds become no-ops); [every] (default 1) is the add cadence
    between atomic rewrites. *)

val in_memory : unit -> t
(** A corpus with no backing file (replay and dedup only). *)

val preload : t -> entry list -> unit
(** Seed with existing entries (no write, not counted as additions). *)

val add : t -> entry -> bool
(** Record a distilled counterexample.  Returns [false] (and writes
    nothing) for a duplicate ({!ident}) or a readonly corpus.
    Thread-safe; a snapshot the addition takes is written after the
    corpus lock is released ({!Robust.Durable.update}). *)

val merge_into : t -> entry list -> int
(** {!add} in bulk; returns how many entries were new.  Flushes once at
    the end rather than per entry. *)

val replay : t -> Pgraph.Graph.operator -> (unit, Robust.Guard.kind) result
(** Replay the candidate against every fingerprint-matching entry
    (exact-signature hits first, rejected without tensor work).
    Rejections carry [Robust.Guard.Counterexample].  Thread-safe; the
    tensor work runs outside the corpus lock. *)

val entries : t -> entry list
(** Sorted by {!ident}. *)

val size : t -> int

val flush : t -> unit
(** Write pending entries now (also writes an initial empty snapshot
    for a fresh file-backed corpus). *)

val writes : t -> int

type stats = {
  st_entries : int;  (** entries currently held *)
  st_added : int;  (** new entries distilled/merged since open *)
  st_checked : int;  (** candidates replayed against the corpus *)
  st_matched : int;  (** entry matches by fingerprint (sum over candidates) *)
  st_executed : int;  (** entries concretely re-executed (family siblings) *)
  st_rejected : int;  (** candidates rejected by replay *)
  st_writes : int;  (** atomic snapshot writes *)
}

val stats : t -> stats

(** {1 Sharding} *)

val load_and_merge : base:string -> shards:int -> entry Robust.Durable.merged
(** {!Robust.Durable.merge_shards} with the corpus codec: each shard's
    private corpus sits at {!Robust.Durable.shard_path}[ ~base
    ~shard_id], next to its checkpoint.  Dedup by {!ident}, the
    earliest shard's entry kept; the result is sorted by {!ident}.
    Never raises on damaged files. *)

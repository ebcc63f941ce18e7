(** The composed admission gate, cheapest stage first: counterexample
    replay ({!Corpus}) — exact-signature hits are rejected with zero
    tensor work, family siblings re-execute only the recorded failing
    inputs — then static bounds verification ({!Analysis.Verify}) —
    interval arithmetic over the coordinate expressions, no tensor ever
    allocated — then resource budgets ({!Budget}) — pure pGraph
    arithmetic — then differential validation ({!Differential}) for
    candidates that survive everything.

    Failures found by the two provers are {e distilled} back into the
    corpus (when one is attached and writable), so the replay stage
    hardens as the search runs: the CEGIS loop.

    This is the only place that sequence is written, and it has two
    users.  Search passes {!gate} as [Search.Mcts]'s [?admit] hook;
    [syno serve] builds one gate per cold [eval] request and reads the
    verdict, checksum and served-kernel timing from {!check}'s
    {!outcome}.  The gate keeps thread-safe running statistics (calls,
    rejections and wall-clock per stage, counterexamples distilled) so
    benches can report validator overhead. *)

type t

type stats = {
  calls : int;  (** candidates gated *)
  rejected : int;  (** candidates refused admission (all stages) *)
  rejected_replay : int;  (** refused by counterexample replay *)
  rejected_static : int;  (** refused by static bounds verification *)
  rejected_budget : int;  (** refused by resource budgets *)
  rejected_differential : int;  (** refused by differential validation *)
  distilled : int;  (** counterexamples added to the corpus *)
  seconds : float;  (** total wall-clock spent inside the gate *)
  replay_seconds : float;  (** wall-clock spent in the replay stage *)
  static_seconds : float;  (** wall-clock spent in the static stage *)
  budget_seconds : float;  (** wall-clock spent in the budget stage *)
  differential_seconds : float;  (** wall-clock spent in differential validation *)
}

val create :
  ?corpus:Corpus.t ->
  ?static:Shape.Valuation.t list ->
  ?max_bytes:int ->
  ?max_flops:int ->
  ?valuations:Shape.Valuation.t list ->
  ?differential:Differential.config ->
  ?check_valuations:Shape.Valuation.t list ->
  unit ->
  t
(** [corpus] attaches a counterexample corpus: candidates are replayed
    against it first, and static/differential failures are distilled
    into it (unless it is readonly).  [static] valuations drive the
    interval verifier (empty — the default — disables the static stage;
    valuations where the operator is not instantiable are skipped,
    mirroring the differential gate's skip rule).  Budgets are enforced
    under [valuations] (the search valuations, where evaluation would
    actually allocate); differential validation runs under
    [check_valuations] (defaulting to [valuations] — pass a smaller
    valuation list to keep the validator cheap). *)

val active : t -> bool
(** Whether the gate can ever reject (a corpus is attached, or the
    static verifier, some budget, or the differential validator is
    configured with a non-empty valuation list). *)

type outcome = {
  verdicts : (Shape.Valuation.t * Analysis.Verify.verdict) list;
      (** the static verdict ([Proved] or [Padded]) at each [static]
          valuation where the operator is instantiable, in order *)
  report : Differential.report option;
      (** the differential report; [None] without [differential] *)
}
(** What an admitted candidate was proven to satisfy. *)

val check :
  ?cancel:Robust.Cancel.t ->
  t ->
  Pgraph.Graph.operator ->
  (outcome, Robust.Guard.kind) result
(** Run the gate on one candidate, recording stats.  Thread-safe.
    Replay rejections surface as [Guard.Counterexample], static
    violations as [Guard.Static_violation].  [cancel] is polled
    between stages and handed to {!Differential.check_full}
    ({!Robust.Cancel.Cancelled} escapes, and the call is not counted). *)

val gate : t -> Pgraph.Graph.operator -> (unit, Robust.Guard.kind) result
(** {!check} with the outcome dropped — the shape [Search.Mcts]
    expects for its [?admit] hook. *)

val stats : t -> stats

(** Differential validation of candidate lowerings.

    Every admitted candidate is compiled by all four execution
    backends — {!Lower.Reference} (the loop-nest ground truth),
    {!Lower.Einsum_program} (gather + einsum), {!Lower.Staged_exec}
    (materialized reductions) and {!Lower.Specialize} (the certified
    kernel [syno serve] serves, built from the staged compile by
    {!Analysis.Certify.specialize}) — and run on small seeded random
    inputs with shared weights.  The specialized kernel is skipped when
    certification declines under the [`Auto] rule.  A candidate is
    quarantined when any backend disagrees with the reference beyond a
    hybrid absolute/relative tolerance ([|a - r| <= tol * (1 + |r|)]),
    or produces NaN/Inf on finite inputs.  Weights and then the input
    are drawn from one RNG seeded by [(seed, operator signature)], so
    verdicts are reproducible and independent of evaluation order.

    A seeded {!fault} deterministically corrupts one output element of
    a chosen backend for a rate-controlled fraction of candidates — a
    synthetic miscompile used to prove (in tests and the [validate]
    bench) that real miscompiles would be caught as
    [Backend_mismatch]. *)

type backend = Reference | Einsum | Staged | Specialized

val backend_label : backend -> string
(** ["reference"], ["einsum"], ["staged"] or ["specialize"]. *)

val backend_of_label : string -> backend option
(** Inverse of {!backend_label} (used by the corpus parser). *)

val backends : backend list

type fault_mode =
  | Corrupt_output  (** flip one element of a backend's output tensor *)
  | Corrupt_expr
      (** shift an input gather out of bounds before compiling anything *)

type fault

val fault : ?seed:int -> ?rate:float -> ?mode:fault_mode -> backend -> fault
(** Corrupt a [rate] fraction of operator signatures (default [1.0]:
    every candidate), selected by hashing [(seed, signature)] exactly
    like {!Robust.Inject}.  [Corrupt_output] (the default) flips one
    element of the given backend's output — a runtime miscompile the
    differential comparison catches.  [Corrupt_expr] instead rewrites
    the operator itself via {!corrupt_operator} before any backend
    compiles; the [backend] argument is ignored in that mode. *)

val corrupt_operator : Pgraph.Graph.operator -> Pgraph.Graph.operator
(** Shift the first input coordinate expression two extents past its
    window.  Every execution backend zero-clips out-of-window reads,
    so all backends agree on an all-zero gather and differential
    comparison alone cannot detect the corruption — only static bounds
    verification ({!Analysis.Verify}) rejects it. *)

val fault_count : fault -> int
(** Corruptions delivered so far (across all domains). *)

type config = {
  tolerance : float;  (** relative tolerance; default [1e-6] *)
  seed : int;  (** input/weight seed; default [0] *)
  fault : fault option;  (** seeded miscompile, for testing the validator *)
}

val default_config : config

val config : ?tolerance:float -> ?seed:int -> ?fault:fault -> unit -> config
(** Raises [Invalid_argument] unless [tolerance > 0]. *)

val derive_seed : seed:int -> string -> int
(** The RNG seed inputs/weights are drawn from for one operator
    signature: a pure function of [(seed, signature)].  Distilled
    counterexamples record this derived value so {!replay_pair} can
    regenerate the exact failing tensors. *)

type pair_stats = {
  ps_backend : backend;  (** the backend compared against the reference *)
  ps_max_abs_err : float;  (** worst [|a - r|] over the pair *)
  ps_max_rel_err : float;  (** worst [|a - r| / (1 + |r|)] *)
  ps_first_fail : (int * float * float) option;
      (** first element beyond tolerance as [(flat index, reference,
          got)] — always [None] in a successful report *)
  ps_seconds : float;
      (** wall seconds of the backend's forward passes, compile
          excluded, summed over the checked valuations *)
}

type report = {
  rep_valuations : int;  (** valuations cross-checked *)
  rep_elements : int;  (** output elements compared (per backend pair) *)
  rep_max_rel_err : float;  (** worst observed [|a - r| / (1 + |r|)] *)
  rep_pairs : pair_stats list;
      (** per-backend-pair worst-case statistics, folded over all
          checked valuations; no [Specialized] entry when
          certification declined at every valuation *)
  rep_sums : float list;
      (** [Nd.Tensor.sum] of the reference output, one per checked
          valuation in order — the checksum [syno serve] answers *)
}

type failure = {
  fl_kind : Robust.Guard.kind;  (** what {!check} would have returned *)
  fl_valuation : Shape.Valuation.t;  (** the valuation the failure occurred at *)
  fl_seed : int;  (** the derived RNG seed the failing tensors came from *)
  fl_backend : backend option;
      (** the diverging backend; [None] when the failure predates any
          backend comparison *)
  fl_index : int option;  (** first failing flat output index *)
  fl_expected : float option;  (** reference value at that index *)
  fl_got : float option;  (** diverging value at that index *)
  fl_abs_err : float;  (** worst absolute error over the failing pair *)
}
(** Everything a distilled counterexample needs to re-create the exact
    failing execution: shape of the failure plus the concrete seeded
    input it happened on. *)

val check_full :
  ?config:config ->
  ?cancel:Robust.Cancel.t ->
  Pgraph.Graph.operator ->
  Shape.Valuation.t list ->
  (report, failure) result
(** Cross-check the operator under every valuation.  [cancel] is
    polled between backends and inside the staged and specialized
    forward passes ({!Robust.Cancel.Cancelled} escapes).  Valuations where
    the operator is not instantiable are skipped (not counted in
    [rep_valuations]) — the gate must never quarantine a candidate the
    un-validated search would have scored.  Failure kinds:
    [Backend_mismatch] for disagreement, shape drift, or non-finite
    outputs on finite inputs; [Eval_error] when a backend fails to run
    at a valuation where the operator does instantiate. *)

val check :
  ?config:config ->
  Pgraph.Graph.operator ->
  Shape.Valuation.t list ->
  (report, Robust.Guard.kind) result
(** {!check_full} with the failure collapsed to its kind. *)

val replay_pair :
  tolerance:float ->
  seed:int ->
  backend:backend ->
  Pgraph.Graph.operator ->
  Shape.Valuation.t ->
  (unit, Robust.Guard.kind) result
(** Re-execute one recorded counterexample against a candidate: the
    reference backend and the single recorded [backend] are run on the
    exact tensors regenerated from the {e derived} [seed]
    ({!derive_seed} output, used verbatim) at the recorded valuation
    and compared under [tolerance] — a fraction of the tensor work of a
    full four-backend cross-check at one valuation.  [backend =
    Reference] checks only reference finiteness (the recorded failure
    was on the reference side).  A candidate that is not instantiable
    at the valuation, or whose specialized kernel does not certify when
    [backend = Specialized], passes vacuously. *)

(** Structural lint pass over complete operators.

    Catches pGraph pathologies that are legal enough to execute but
    indicate a miscompiled, hand-corrupted, or degenerate candidate:

    - [unknown-iterator]: an input expression or weight group uses an
      iterator the operator never declared (the executors would index
      an environment slot that is never written — or crash);
    - [dead-axis]: a spatial iterator reaches neither the input gather
      nor any weight, so the output is replicated along it;
    - [futile-reduction]: a reduction iterator occurs in fewer than two
      multiplied tensors (input counts once, each weight group once) —
      including the degenerate zero-occurrence case of a contraction
      label that never reaches any tensor and merely scales the output;
    - [degenerate-size-1]: a primitive in the trace whose size is 1
      under every valuation (Merge by 1, Stride by 1, Unfold of a
      1-wide window, Shift of a 1-sized dim, Reduce 1) — an identity
      the canonicalizer should have pruned;
    - [unreduced-expand]: an [Expand] deleted a dimension whose
      iterators then never reach a weight (spatial) or a second tensor
      (reduction), so the expansion only replicates or scales;
    - [all-border]: the {!Regions} certificate proves no access of any
      nest in-window under some valuation (interior fraction 0), so
      every access is clipped per output;
    - [guarded-nest]: [Lower.Specialize.clips_exactly] is false under
      some valuation — a final dim is non-affine in a reduction
      iterator (a closure dim), or a listed dim moves with two or more
      of them — so some outputs of that nest can run the guarded loop;
    - [trace-mismatch]: the recorded trace does not replay;
    - [cost-drift]: the lint pass's own independent FLOPs/elements
      recomputation disagrees with [Pgraph.Flops] (cross-checking the
      estimators [Validate.Budget] prices from).

    The pass allocates no tensors. *)

type severity = Error | Warning

type finding = { lint_rule : string; lint_severity : severity; lint_detail : string }

val finding_to_string : finding -> string
(** One line, machine-readable: ["RULE severity: detail"]. *)

type cost = {
  c_flops : int;
  c_params : int;
  c_input_elems : int;
  c_output_elems : int;
  c_reduction_elems : int;
  c_gather_elems : int;
  c_peak_elems : int;
}

val cost : Pgraph.Graph.operator -> Shape.Valuation.t -> cost
(** Static cost recomputed directly from the operator structure,
    deliberately {e not} via [Pgraph.Flops], so the two can
    cross-check each other.  Raises [Failure] when not instantiable. *)

val check : ?valuations:Shape.Valuation.t list -> Pgraph.Graph.operator -> finding list
(** Run every rule.  [valuations] (default none) enable the
    size-dependent rules (degeneracy, cost drift); structural rules
    run regardless. *)

val errors : finding list -> finding list
(** Only the [Error]-severity findings. *)

(** Rewrite-soundness checking for the coordinate-expression TRS.

    {!Coord.Simplify} (and through it the canonical-form check of
    {!Pgraph.Canon}) rewrites coordinate expressions with rules whose
    side conditions are discharged by "for all valuations" range
    predicates.  A bug in a rule or a predicate silently changes
    operator semantics and only surfaces later as a backend mismatch.
    This module re-verifies each {e actually fired} rule application
    (recorded by {!Coord.Simplify.simplify_traced}): the LHS and RHS
    are compared in the {!Interval} domain and evaluated pointwise
    over the iterator domains under every context valuation —
    exhaustively when the iteration product is small, on corner +
    pseudo-random samples otherwise.

    Approximate Fig. 3(c) rules deliberately change semantics (they
    drop perturbations that are tiny w.r.t. the divisor); they are
    counted but exempt from exact equality. *)

type failure = {
  fl_before : Coord.Ast.t;
  fl_after : Coord.Ast.t;
  fl_valuation : Shape.Valuation.t;
  fl_witness : (int * int) list;  (** iterator id -> value at the disagreement *)
  fl_lhs : int;
  fl_rhs : int;
}
(** A concrete point where an exact rewrite changed the value. *)

type report = {
  rp_checked : int;  (** fired rule applications examined *)
  rp_exhaustive : int;  (** verified over the full iteration product *)
  rp_sampled : int;  (** verified on sampled points only *)
  rp_approx : int;  (** approximate rules (exempt from exact equality) *)
  rp_failures : failure list;
}

val empty_report : report
val merge_reports : report -> report -> report
val failure_to_string : failure -> string

val check_rewrite :
  Shape.Valuation.t list -> Coord.Simplify.rewrite -> failure option * [ `Exhaustive | `Sampled ]
(** Verify one fired application against every valuation (skipping
    valuations it does not evaluate under). *)

val check_operator : Coord.Simplify.ctx -> Pgraph.Graph.operator -> report
(** Re-simplifies every input coordinate expression of the operator
    with tracing and verifies every fired application — exactly the expressions the canonical-form check of
    {!Pgraph.Canon} fires the TRS on. *)

(** Cost accounting for complete operators: FLOPs, parameter count, and
    memory footprint under a concrete valuation.

    The naive FLOP count is the product of the spatial and reduction
    loop extents (two FLOPs per multiply-accumulate); the materialized-
    reduction optimization of \u{00a7}8 (implemented in the [lower] library)
    can stage the computation to below this number. *)

val naive_flops : Graph.operator -> Shape.Valuation.t -> int
(** 2 * prod(output dims) * prod(reduction domains). *)

val params : Graph.operator -> Shape.Valuation.t -> int
(** Total weight elements across all weight groups. *)

val input_elems : Graph.operator -> Shape.Valuation.t -> int
val output_elems : Graph.operator -> Shape.Valuation.t -> int

val gather_elems : Graph.operator -> Shape.Valuation.t -> int
(** Elements of the gathered einsum operand ([output_elems] times the
    product of the reduction domains), the dominant intermediate of
    the einsum lowering. *)

val peak_footprint : Graph.operator -> Shape.Valuation.t -> int
(** Input, output and parameter elements plus [gather_elems]: a
    conservative peak resident element count valid for every lowering
    backend.  [Validate.Budget] prices exactly this number
    (cross-checked by [Analysis.Lint] and the test suite, so the two
    estimators cannot drift). *)

val within_budgets :
  ?max_flops:int ->
  ?max_params:int ->
  ?max_memory:int ->
  Graph.operator ->
  Shape.Valuation.t list ->
  bool
(** Budgets hold when they hold under every valuation. *)

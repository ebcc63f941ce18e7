(** Reference execution of complete operators: the exact loop-nest
    semantics of a pGraph, with analytically derived gradients.

    [out[o] = sum over r of in[f(o, r)] * prod_g w_g[idx_g(o, r)]]

    where [f] are the input coordinate expressions and out-of-bounds
    input accesses contribute zero (the clipping semantics of [Unfold]
    in Table 1).  This is the ground truth that the faster lowered
    programs are differential-tested against, and the executor used for
    training synthesized operators inside real models. *)

type t

val compile_expr : (Shape.Var.t -> int) -> Coord.Ast.t -> int array -> int
(** Compile a coordinate expression into a closure over the iterator
    environment (indexed by iterator id), with sizes resolved through
    the lookup.  Shared with {!Staged_exec}. *)

(** {2 Affine splitting}

    The one splitter behind {!Specialize.compile}'s final-factor strides
    and the nest {!forward} and {!backward} compile. *)

type split = {
  affine : (int * Coord.Ast.t) list;
      (** the affine terms; an iterator-free [Div]/[Mod], such as
          [Unfold]'s [k / 2] centring offset, is a constant *)
  residue : (int * Coord.Ast.t) list;  (** the other terms that mention no reduction iterator *)
  dynamic : bool;  (** some non-affine term mentions a reduction iterator *)
}

val split : reductions:int array -> Coord.Ast.t -> split
(** The expression as a signed sum of additive terms (split at
    [Add]/[Sub], with [Mul] distributed over the split, exact in
    integers): the affine terms, which {!strides} turns into constant
    strides; the non-affine terms over no iterator in [reductions],
    which take one value per output; and whether any other term is
    left. *)

val strides : (int array -> int) -> env_size:int -> int array -> int * int array
(** [strides eval ~env_size ids] probes a compiled expression: its value
    at the all-zero environment, and for each iterator id in [ids] its
    change per unit of that iterator.  Exact when [eval] is affine in
    [ids] with the other iterators held fixed — an affine term, or a
    whole dim whose non-affine terms mention none of [ids]. *)

(** {2 Per-output clipping}

    The one clip routine behind the nest {!forward} and {!backward}
    compile and [Specialize]'s border outputs.  A dim's index is
    [base + sum_j red.(j) * r_j] over the reduction axes [r_j], and it
    reads inside its window when [0 <= index < extent]. *)

type clip =
  | Empty  (** some dim reads outside its window at every point of the box *)
  | Inside  (** every followed dim reads inside its window over the clipped box *)
  | Partial  (** a dim moving with several axes leaves its window somewhere in the box *)

type clipper

val clipper : doms:int array -> extents:int array -> int array option array -> clipper
(** [clipper ~doms ~extents red]: reduction axes of extents [doms], and
    per dim its window extent and [Some] its stride per reduction axis,
    or [None] for a dim the clip does not follow (one a closure
    indexes). *)

val exact : clipper -> bool
(** No followed dim moves with two or more reduction axes, so {!clip}
    never answers [Partial]. *)

val clip : clipper -> int array -> lo:int array -> ext:int array -> clip
(** [clip c base ~lo ~ext] for one output whose dims sit at [base]
    (indices at the all-zero reduction point): each dim that moves with
    one reduction axis clips that axis exactly to its in-window range
    (floor/ceiling division, sign-aware); every other followed dim is
    range-tested over the clipped box.  Writes the box, per axis its
    first point [lo] and extent [ext], and allocates nothing.  On
    [Inside], the box is exactly the points every followed dim reads
    inside its window. *)

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t

val output_shape : t -> int array
val input_shape : t -> int array
val weight_shapes : t -> int array list
val operator : t -> Pgraph.Graph.operator

val init_weights : t -> Nd.Rng.t -> Nd.Tensor.t list
(** Kaiming-style initialization generalized to weight products: the
    variance budget [2 / reduction extent] is split evenly across the
    weight groups so the accumulated output keeps unit-order scale. *)

val check_arguments : string -> t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> unit
(** [check_arguments fn t ~input ~weights] raises [Invalid_argument]
    prefixed with [fn] and naming the bad argument when the input's
    shape differs from {!input_shape}, the weight count from
    {!weight_shapes}, or a weight's shape from its group's.  The one
    argument check of {!forward}, {!backward} and
    [Staged_exec.initial_factors]. *)

val forward : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** [out] of the per-point semantics above: per output, from [+0.0],
    the reduction points in row-major order that are not clipped each
    add [x * w_0 * ... * w_last], the product built from the input value
    in group order.  Arguments are checked by {!check_arguments}.

    The body is the loop nest {!backward} compiles, with the forward's
    inner runs: per output, {!clip} bounds the box; an [Empty] box
    leaves [+0.0]; an [Inside] box whose dims need no closure and whose
    weight windows fit runs unchecked strided runs under an odometer;
    any other box runs the guarded odometer.  Points are visited in the
    per-point order and form the same products, so the output is
    bit-identical to the per-point semantics.  It runs sequentially. *)

val backward :
  t ->
  input:Nd.Tensor.t ->
  weights:Nd.Tensor.t list ->
  grad_out:Nd.Tensor.t ->
  Nd.Tensor.t * Nd.Tensor.t list
(** [(grad_input, grad_weights)] of [out = forward input weights] under
    the upstream gradient [grad_out]: per (output, reduction) point that
    is not clipped and whose [grad_out] [g] is not 0,
    [grad_in[f(o, r)] += g * w_prod] with [w_prod] built from 1.0 in
    group order, and [grad_w_g[idx_g] += (g * x) * w_g'] over [g' <> g]
    in ascending order.  Arguments are checked by {!check_arguments},
    and [grad_out] must have {!output_shape}.

    The body is a loop nest compiled per call (microseconds), the one
    {!forward} runs with its own inner runs.  Each
    input dim is split by {!split}: an affine dim becomes a
    constant plus a {!strides} stride per output and per reduction
    axis; a dim whose non-affine terms mention output iterators only
    evaluates its closure once per output and then moves by reduction
    strides; any other dim keeps its {!compile_expr} closure.  Weight
    groups are bare iterators, so their offsets are strides too.

    Per output, the strides decide which reduction points read inside
    the input ({!clip}): each dim that moves with one reduction axis
    clips that axis to an exact sub-range, and the other dims are
    range-tested over the clipped box.  When no dim needs a closure,
    every test passes and the weight windows fit,
    the box runs with unchecked reads and writes — an odometer over the
    outer axes and a tight loop over the inner two (axes of extent 1
    skipped), specialized for 1 and 2 weight groups with a general
    fallback.  Otherwise a guarded
    odometer window-tests every point of the whole box.  The clipped-away
    points are exactly the ones that would have added nothing.

    The points are visited in the per-point order — outputs outermost in
    row-major order, then the reductions in row-major order — and each
    forms the same products, so the gradients are bit-identical to the
    per-point semantics above.  It runs sequentially. *)

val flops : t -> int
(** Naive loop-nest FLOPs (no staging). *)

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
    the lookup. *)

(** {2 The compiled nest}

    The one contraction executor: {!forward}, {!backward} and every nest
    of [Staged_exec] and [Specialize] (each materialized stage and the
    final contraction) run it.  A nest sums, per output, over a box of
    reduction points, the product of N factors in factor order.  Each
    factor dim's index (its window low subtracted) is split at
    [Add]/[Sub] into additive terms: an affine dim (an iterator-free [Div]/[Mod], such as
    [Unfold]'s [k / 2] centring offset, is a constant) becomes a
    constant plus a stride per output and per reduction axis; a dim
    whose non-affine terms mention output iterators only evaluates its
    closure once per output and then moves by reduction strides; any
    other dim, a {e closure dim}, keeps its closure.

    The nest takes a {e clip set}: the dims that may leave their window
    and are clipped per output.  Per output, each listed dim that moves
    with one reduction axis clips that axis exactly to its in-window
    range (floor/ceiling division, sign-aware); every other listed dim
    is range-tested over the clipped box.  An empty box leaves the
    output at [+0.0]; a box every listed dim reads inside, in a nest
    with no closure dim, runs unchecked strided runs under an odometer
    (axes of extent 1 skipped, the inner two as rows of runs,
    specialized for 2 and 3 factors with a general fallback).  An
    unlisted dim is read unchecked, so a dim may be left out only where
    it is proved in-window over the whole box.

    The forward runs such boxes in blocks: up to four consecutive
    outputs of one range whose boxes clip exactly alike walk that box
    once, with four accumulators (kernels for 1, 2 and 3 factors, and
    for one weight element or one input element shared by the four).
    Each output keeps its own factor offsets, so a block may cross a
    row end; the walk covers every axis of the box in one call (the
    inner two as runs, the rest from the odometer unrolled once per box
    extents).  A lone output, an output that is not [Inside], and any
    output of a nest with a closure dim or of 4 or more factors take
    the per-output path.  The bits do not move: each output still sums
    from its own [+0.0], over the same points in the same row-major
    order, the same products in the same association
    ([x *. w0 *. w1]), and an output's sum never depends on another's.  The backward stays per output: its
    scatter into shared gradients is ordered across outputs. *)

type dim
(** One factor dim, compiled. *)

val affine_dim : const:int -> out:int array -> red:int array -> extent:int -> dim
(** An affine dim: index [const + out . pos + red . r] at output [pos]
    and reduction point [r], in window when [0 <= index < extent]. *)

val expr_dim :
  (Shape.Var.t -> int) ->
  out_ids:int array ->
  red_ids:int array ->
  env_size:int ->
  Coord.Ast.t ->
  lo:int ->
  extent:int ->
  dim
(** [expr_dim lookup ~out_ids ~red_ids ~env_size expr ~lo ~extent]: the
    dim [expr] indexes, in window when [lo <= expr < lo + extent], over
    output iterators [out_ids] and reduction iterators [red_ids] (ids
    into an environment of [env_size] slots). *)

type nest

val nest :
  out_ids:int array ->
  red_ids:int array ->
  red_doms:int array ->
  env_size:int ->
  dim array array ->
  clips:bool array array ->
  nest
(** [nest ~out_ids ~red_ids ~red_doms ~env_size factors ~clips]: the
    contraction over reduction axes of extents [red_doms] of the
    [factors] (per factor, its dims in row-major order), with [clips]
    flagging, per factor and dim, the clip set.  The iterator ids are
    read only by non-affine dims.  Raises [Invalid_argument] unless
    [clips] has one flag per dim. *)

val exact : nest -> bool
(** Every output's clip is exact: the nest has no closure dim, and no
    listed dim moves with two or more reduction axes.  Otherwise some
    output runs the nest's guarded odometer. *)

val forward_element :
  nest -> float array array -> float array -> unit -> (int array -> int -> unit) * (unit -> unit)
(** [forward_element n datas out ()] is the forward over the factors'
    data [datas] as a per-output body [element pos w] and a [finish ()]
    that ends the range: output [w] at [pos] gets, added to [out.(w)]
    (which must hold [+0.0]), each reduction point of its clipped box in
    row-major order, the product built from factor 0's value in factor
    order.  [element] may defer an output to a block it walks with later
    ones (see the nest above); [finish ()] runs what is pending, so it
    must follow the last [element] of a range, before [out] is read.  An
    output the clip cannot bound exactly, or any output of a nest with a
    closure dim, runs the nest's guarded odometer, which visits the
    whole box and skips the points where a listed dim leaves its window.
    A clipped point adds nothing, whatever the factors hold.

    The scratch is the nest's, kept from its last call ([finish] hands
    it back), or its own when another range holds that one: it allocates
    nothing per output, and nothing per call once the nest has run.
    The scratch learns each output axis's offset step, so every call on
    one nest must cover outputs of the same extents. *)

(** {2 Seeded mutants}

    Faults in the nest's shared routines, for showing that differential
    validation catches a bug the compiled backends share.  Each is a
    hook that costs one branch when no mutant is armed. *)

type mutant =
  | Clip_upper  (** each per-axis clip's upper bound one short *)
  | Stride_sign  (** the first non-zero stride of each probe negated *)
  | Dropped_residue  (** the splitter drops a dim's first residue term *)
  | Short_run  (** each unchecked inner run one step short *)

val mutants : mutant list
val mutant_to_string : mutant -> string

val with_mutant : mutant -> (unit -> 'a) -> 'a
(** [with_mutant m f] runs [f] with [m] armed in every nest compiled or
    run meanwhile, on any domain, and disarms it however [f] returns.
    A nest compiled under a mutant clips every dim, listed or not, so
    a mutated index is never read unchecked. *)

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t

val output_shape : t -> int array
val input_shape : t -> int array
val weight_shapes : t -> int array list
val operator : t -> Pgraph.Graph.operator

val init_weights : t -> Nd.Rng.t -> Nd.Tensor.t list
(** Kaiming-style initialization generalized to weight products: the
    variance budget [2 / reduction extent] is split evenly across the
    weight groups so the accumulated output keeps unit-order scale. *)

val check_arguments :
  string ->
  input_shape:int array ->
  weight_shapes:int array list ->
  input:Nd.Tensor.t ->
  weights:Nd.Tensor.t list ->
  unit
(** [check_arguments fn ~input_shape ~weight_shapes ~input ~weights]
    raises [Invalid_argument] prefixed with [fn] and naming the bad
    argument when the input's shape differs from [input_shape], the
    weight count from [weight_shapes]'s length, or a weight's shape
    from its group's.  The one argument check of {!forward} and
    {!backward} (against {!input_shape} and {!weight_shapes}) and of
    [Staged_exec.initial_factors]. *)

val forward : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** [out] of the per-point semantics above: per output, from [+0.0],
    the reduction points in row-major order that are not clipped each
    add [x * w_0 * ... * w_last], the product built from the input value
    in group order.  Arguments are checked by {!check_arguments}.

    The body is the compiled nest ({!forward_element}) over the input
    followed by the weight groups, with every input dim in the clip set
    (a weight dim is a bare iterator over its own domain and never
    leaves its window); outputs it cannot clip exactly run its guarded
    odometer.  Points
    are visited in the per-point order and form the same products, so
    the output is bit-identical to the per-point semantics.  It runs
    sequentially. *)

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

    The body is the nest {!forward} runs, with the backward's own inner
    runs (specialized for 1 and 2 weight groups with a general
    fallback) and its own guarded point.  The points are visited in the
    per-point order — outputs outermost in row-major order, then the
    reductions in row-major order — and each forms the same products,
    so the gradients are bit-identical to the per-point semantics
    above.  It runs sequentially: it scatters into shared gradients. *)

val flops : t -> int
(** Naive loop-nest FLOPs (no staging). *)

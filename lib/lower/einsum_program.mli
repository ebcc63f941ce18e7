(** The einsum-program code generator (\u{00a7}8, "PyTorch code generator").

    A complete operator lowers to a two-step tensor program over the
    [nd] substrate:

    + a {e gather} that materializes [G[o, r] = input[f(o, r)]] with
      out-of-bounds clipped to zero (all the view primitives in one
      indexed copy), then
    + a single einsum contraction of [G] with the weight tensors.

    The gather evaluates the coordinate expressions with
    {!Coord.Ast.eval} only: {!compile} fills one index table per input
    dim, over just the iterators that dim mentions, and the gather
    walks the grid with an odometer that carries each table's offset.
    It shares no code with {!Reference}'s compiled nest (no compiled
    closures, splitter, strides or clip), so a bug there still shows
    as a mismatch against this backend.

    The result is numerically identical to {!Reference.forward} on
    finite values and is differential-tested against it.  Like the
    PyTorch program it prints, the contraction multiplies a clipped
    point's gathered [0.0] in, so an infinite or NaN weight there gives
    NaN: this is the one backend where a clipped point does not simply
    add nothing, and it differs from the others on non-finite values
    ([Validate.Differential] draws only finite ones).  [to_pytorch] and
    [to_te] print the equivalent PyTorch-style and TVM-TE/Halide-style
    programs. *)

type t

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t

val gather : t -> input:Nd.Tensor.t -> Nd.Tensor.t
(** The gathered tensor [G], over the (output x reduction) grid in
    row-major order, outputs outermost; a clipped point reads [0.0].
    Raises [Invalid_argument] when the input has the wrong shape. *)

val forward : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
val to_pytorch : t -> string
val to_te : t -> string

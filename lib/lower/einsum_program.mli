(** The einsum-program code generator (\u{00a7}8, "PyTorch code generator").

    A complete operator lowers to a two-step tensor program over the
    [nd] substrate:

    + a {e gather} that materializes [G[o, r] = input[f(o, r)]] with
      out-of-bounds clipped to zero (all the view primitives in one
      indexed copy), then
    + a single einsum contraction of [G] with the weight tensors.

    The result is numerically identical to {!Reference.forward} and is
    differential-tested against it.  [to_pytorch] and [to_te] print the
    equivalent PyTorch-style and TVM-TE/Halide-style programs. *)

type t

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t
val forward : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
val to_pytorch : t -> string
val to_te : t -> string

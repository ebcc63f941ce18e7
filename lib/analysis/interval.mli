(** Sound integer intervals for coordinate expressions.

    The abstract domain of the static verifier: an inclusive range
    [[lo, hi]] over-approximating the set of values an expression can
    take when each iterator ranges over its domain.  All operations
    are {e sound} (the concrete image is always contained in the
    abstract result); division and modulo are additionally {e exact}
    on the cases the Syno primitives generate:

    - floored division by a positive constant is monotone, so
      [fdiv [lo, hi] n = [lo/n, hi/n]] is the exact image of a
      contiguous range;
    - Euclidean modulo is exact whenever the operand range lies within
      a single period ([lo/n = hi/n]) — the wraparound [Shift]
      produces — and otherwise widens to the full [[0, n-1]].

    This makes the domain strictly more precise than
    {!Coord.Ast.bounds}, which only passes a modulo through when the
    operand is already in [[0, n)]. *)

type t = private { lo : int; hi : int }
(** An inclusive, non-empty range: [lo <= hi]. *)

val make : int -> int -> t
(** [make lo hi]; raises [Invalid_argument] when [lo > hi]. *)

val add : t -> t -> t
val sub : t -> t -> t

val scale : int -> t -> t
(** Multiplication by an arbitrary integer constant (negative allowed). *)

val fdiv : t -> int -> t
(** Floored division by a positive constant; raises [Invalid_argument]
    on a non-positive divisor. *)

val emod : t -> int -> t
(** Euclidean modulo by a positive constant: exact when the range lies
    within one period, [[0, n-1]] otherwise. *)

val join : t -> t -> t
(** Smallest interval containing both. *)

val within : t -> lo:int -> hi:int -> bool
(** The whole interval lies inside the inclusive window. *)

val disjoint : t -> lo:int -> hi:int -> bool
(** No point of the interval lies inside the inclusive window. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val eval :
  lookup:(Shape.Var.t -> int) -> ?env:(Coord.Ast.iter -> t) -> Coord.Ast.t -> t
(** Abstract interpretation of a coordinate expression.  [env] gives
    each iterator's interval (default: its full domain
    [[0, dom - 1]]); [lookup] the valuation of size variables.  Raises
    [Failure] like {!Shape.Size.eval} when a size does not evaluate
    under the valuation (e.g. a non-integer quotient). *)

val eval_opt :
  lookup:(Shape.Var.t -> int) -> ?env:(Coord.Ast.iter -> t) -> Coord.Ast.t -> t option
(** [eval] returning [None] instead of raising on an unevaluable
    size. *)

(** Symbolic dimension sizes.

    A size is a monomial [c * v1^e1 * ... * vn^en] with a positive
    integer constant [c] and integer exponents.  Primary variables must
    have non-negative exponents (they may not appear in denominators,
    \u{00a7}5.4); coefficient variables may have negative exponents, as in the
    pooling example of Table 2 whose output height is [s{^-1} * H]. *)

type t

val one : t
val of_int : int -> t
(** [of_int c] is the constant size [c]. Raises [Invalid_argument] if
    [c <= 0]. *)

val of_var : Var.t -> t
val var_pow : Var.t -> int -> t

val mul : t -> t -> t
(** [mul a b] is [a * b], unchecked: the constant and each exponent
    wrap on overflow, as [int] arithmetic does, because search
    multiplies sizes in its hot loop.  A parser of untrusted input must
    check each product itself (as [Pgraph.Trace_io] does). *)

val div : t -> t -> t option
(** [div a b] is [Some (a / b)] when the quotient is a well-formed size
    (integer constant part, no primary variable left in a denominator),
    [None] otherwise. *)

val pow : t -> int -> t option
(** [pow a k]; [None] if a negative power would put a primary variable
    in a denominator or make the constant non-integer. *)

val inv : t -> t option

val constant : t -> int
val exponent : t -> Var.t -> int
val pows : t -> (Var.t * int) list
(** Each variable with a non-zero exponent, with that exponent, sorted
    by variable. *)

val vars : t -> Var.t list
(** Variables with non-zero exponent, sorted. *)

val is_one : t -> bool
val is_constant : t -> bool
val has_negative_exponent : t -> bool

val primary_part : t -> t
(** The sub-monomial restricted to primary variables (constant 1). *)

val coefficient_part : t -> t
(** Constant and coefficient-variable part. *)

val eval : t -> (Var.t -> int) -> int
(** Evaluate under a valuation.  Raises [Failure] if the result is not a
    positive integer (non-exact division). *)

val eval_opt : t -> (Var.t -> int) -> int option

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** Consistent with {!equal}; allocates nothing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val product : t list -> t
(** Product of a list of sizes; [one] for the empty list. *)

val gcd : t -> t -> t
(** Greatest common divisor: gcd of the constants and per-variable
    minimum of the exponents (only non-negative exponents of variables
    common to both are considered). *)

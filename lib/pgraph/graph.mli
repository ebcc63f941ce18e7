(** Partial pGraphs: the bottom-up synthesis state of \u{00a7}5 and \u{00a7}7.1.

    Synthesis starts from the output coordinates of the operator (the
    "bottom" of the pGraph) and applies primitives that transform the
    current {e frontier} of coordinate expressions towards the input
    tensor (the "top").  A frontier dimension carries the expression —
    over output (spatial) and reduction iterators — that will index the
    input tensor along that dimension if the pGraph is completed now. *)

type dim = {
  expr : Coord.Ast.t;
  size : Shape.Size.t;
  origin : Prim.kind option;
      (** The primitive that produced this dim; [None] for an original
          output dimension.  Used by canonicalization. *)
  pending_stride : bool;
      (** Set by [Stride]; such a dim may only be consumed as the
          window of an [Unfold] (\u{00a7}5.2: Stride must pair with a
          1-to-many primitive to keep the no-discard property). *)
}

type t

val init : Shape.Size.t list -> t
(** [init output_shape] is the empty pGraph whose bottom coordinates
    are fresh spatial iterators over [output_shape]. *)

val frontier : t -> dim list
val frontier_sizes : t -> Shape.Size.t list
val weights : t -> Coord.Ast.iter list list
(** Weight groups, oldest first; each is the (bare) iterators indexing
    one weight tensor, in assignment order. *)

val trace : t -> Prim.t list
(** Applied primitives, oldest first. *)

val num_prims : t -> int
val counts : t -> kind:Prim.kind -> int
(** How many applied primitives have the given kind. *)

val last_prim : t -> Prim.t option

val apply : t -> Prim.t -> (t, string) result
(** Apply an action; [Error reason] when structurally inapplicable
    (position out of range, non-dividing [Merge] block, [Share]/[Match]
    of a non-bare dim, misuse of a pending-stride dim, ...). *)

val apply_exn : t -> Prim.t -> t
val apply_all : t -> Prim.t list -> (t, string) result

(** {1 Complete operators} *)

type operator = {
  op_output_iters : Coord.Ast.iter list;
  op_output_shape : Shape.Size.t list;
  op_input_exprs : Coord.Ast.t list;
      (** one per input dimension, in input-shape order *)
  op_input_shape : Shape.Size.t list;
  op_weights : Coord.Ast.iter list list;
  op_reductions : Coord.Ast.iter list;
  op_trace : Prim.t list;
}

val complete :
  ?allow_strided:bool -> t -> desired:Shape.Size.t list -> (operator, string) result
(** Close the pGraph against the desired input shape.  Succeeds when
    the frontier sizes are a permutation of [desired] (transposition is
    free at the final match, \u{00a7}7.1) and the quality conditions hold:
    no pending strides; every spatial iterator appears in the input
    expressions or a weight (no replicated output slices); every
    reduction iterator appears in the input expressions or in at least
    two weight groups (no futile constant-factor reductions). *)

val matches : t -> desired:Shape.Size.t list -> bool
(** Whether [complete] would succeed on shape grounds (permutation
    match of frontier sizes). *)

val pp : Format.formatter -> t -> unit
val pp_operator : Format.formatter -> operator -> unit

val operator_signature : operator -> string
(** A canonical textual form of the operator semantics (input
    expressions, weights, reductions), usable for deduplication. *)

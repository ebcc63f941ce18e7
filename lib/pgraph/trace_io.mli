(** Textual serialization of operators.

    A discovered operator is fully determined by its output shape, its
    desired input shape, and the primitive trace; this module prints
    and parses that triple so search results can be saved and reloaded
    (the paper's search sessions persist their samples the same way).

    Format (one logical field per line, [#] comments allowed):
    {v
    syno-operator v1
    output: N C_out H W
    input: N C_in H W
    trace: Reduce(C_in); Reduce(k); Share(4,new); Unfold(2,5); Match(1)
    v}

    Sizes are products of factors separated by [*]: positive integer
    literals, primary variables (identifiers), and coefficient
    variables (identifiers prefixed with [']), each optionally raised
    with [^] to an integer power, e.g. [C_out*'g^-1*'s^-1]. *)

val size_to_string : Shape.Size.t -> string
val size_of_string : string -> (Shape.Size.t, string) result

val prim_to_string : Prim.t -> string
val prim_of_string : string -> (Prim.t, string) result

val to_string : Graph.operator -> string

type parsed = {
  output_shape : Shape.Size.t list;
  input_shape : Shape.Size.t list;
  trace : Prim.t list;
}

val parse : string -> (parsed, string) result

val of_string : ?allow_strided:bool -> string -> (Graph.operator, string) result
(** [parse], then replay the trace and complete against the input
    shape. *)

val roundtrip_exact : Graph.operator -> bool
(** [of_string (to_string op)] yields an operator with the same
    signature — used as a property test. *)

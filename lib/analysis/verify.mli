(** Static bounds proofs for lowered programs.

    Every tensor access a lowered Syno operator performs — the input
    gather shared by {!Lower.Reference} and {!Lower.Einsum_program},
    the weight indexing, and every per-stage factor access of
    {!Lower.Staged_exec} (via its {!Lower.Staged_exec.access_plan}) —
    is an integer coordinate expression checked against a window.
    This module evaluates each expression in the {!Interval} domain
    and emits a typed verdict:

    - [Proved]: every access is statically inside its window;
    - [Padded regions]: some accesses fall outside, but only into the
      zero-padded boundary regions [Shift]/[Unfold] legally produce —
      [regions] identifies each out-of-bounds range exactly;
    - [Violation d]: an access range never intersects its window, so
      the tensor it reads contributes identically zero (a miscompiled
      or corrupted program) — [d] says which access, where it ranges,
      and what window it missed.

    The whole analysis is arithmetic on the pGraph structure: no
    tensor is allocated (provable via [Nd.Tensor.allocations]). *)

type region = {
  rg_what : string;  (** which program part: ["input"], ["stage k"], ["final"] *)
  rg_dim : int;  (** dimension index within that part *)
  rg_expr : Coord.Ast.t;  (** the indexing expression *)
  rg_window : int * int;  (** inclusive in-bounds window *)
  rg_below : (int * int) option;  (** accessed range below the window *)
  rg_above : (int * int) option;  (** accessed range above the window *)
}

type diagnostic = {
  dg_what : string;
  dg_dim : int;
  dg_expr : Coord.Ast.t;
  dg_range : Interval.t;  (** the full access range *)
  dg_window : int * int;
  dg_reason : string;
}

type verdict =
  | Proved
  | Padded of region list
  | Violation of diagnostic

val diagnostic_to_string : diagnostic -> string
(** One-line, machine-readable renderings used by [syno lint] and the
    [static_violation] guard payload. *)

val verdict_to_string : verdict -> string

val operator : Pgraph.Graph.operator -> Shape.Valuation.t -> verdict
(** Bounds for the direct lowering: every input-gather expression
    against its input dimension and every weight access against its
    iterator domain (covers {!Lower.Reference} and the
    {!Lower.Einsum_program} gather, which share the same access
    structure).  Raises [Failure] when the operator is not
    instantiable under the valuation. *)

val staged : Pgraph.Graph.operator -> Shape.Valuation.t -> verdict
(** Bounds for the materialized-reduction executor: every per-stage
    factor access of the compiled {!Lower.Staged_exec} plan.  Raises
    [Failure] when not instantiable. *)

val staged_of : Lower.Staged_exec.t -> verdict
(** [staged] for a plan already compiled by {!Lower.Staged_exec.compile}. *)

val program : Pgraph.Graph.operator -> Shape.Valuation.t -> verdict
(** [operator] and [staged] combined: [Proved] only if both prove,
    padded regions concatenated, first violation wins. *)

val program_of : Lower.Staged_exec.t -> verdict
(** [program] for a plan already compiled by {!Lower.Staged_exec.compile}. *)

val program_opt : Pgraph.Graph.operator -> Shape.Valuation.t -> verdict option
(** [program], with [None] for a valuation the operator is not
    instantiable under (mirroring how differential validation skips
    such valuations). *)

val admit :
  Pgraph.Graph.operator -> Shape.Valuation.t list -> (unit, Robust.Guard.kind) result
(** The admission form: check [program] under every valuation
    (skipping non-instantiable ones); any [Violation] rejects the
    candidate with [Robust.Guard.Static_violation] carrying the
    rendered diagnostic.  [Padded] is legal and admits. *)

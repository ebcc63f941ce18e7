(** Term-rewriting simplification of coordinate expressions (\u{00a7}6).

    Following Halide's TRS approach, expressions are rewritten bottom-up
    to a simplest form, where "simplicity" is the paper's empirical
    criterion of removing parentheses by distributing multiplication,
    division, and modulo over addition.

    Predicates that depend on variable magnitudes (e.g. [dom(j) < B])
    are decided the way the paper's footnote 4 prescribes: a symbolic
    comparison holds iff it holds under {e every} concrete valuation
    extracted from the backbone model. *)

type ctx

val ctx :
  ?approx_factor:int option ->
  Shape.Valuation.t list ->
  ctx
(** [ctx valuations] builds a simplification context.  [approx_factor]
    (default [Some 8]) enables the approximate rules of Fig. 3(c): an
    additive perturbation [d] is dropped from a division when
    [range(d) * factor <= divisor] under every valuation.  Pass
    [~approx_factor:None] to keep only exact rules. *)

val valuations : ctx -> Shape.Valuation.t list

val flatten : Ast.t -> Ast.t
(** Purely structural sum normalization: nested [Add]/[Sub] chains are
    flattened, constants folded, and terms sorted.  No semantic rewrite
    fires, so a pGraph can build its coordinate expressions directly in
    this layout; {!simplify} then differs from the built expression iff
    a genuine simplification exists. *)

val simplify : ctx -> Ast.t -> Ast.t
(** Rewrite to a normal form: constants folded, multiplications
    distributed, divisions and modulos pushed through exact multiples,
    sums flattened and sorted. *)

type rewrite = {
  rw_before : Ast.t;  (** the node the rule fired on *)
  rw_after : Ast.t;  (** what it was rewritten to *)
  rw_approx : bool;
      (** an approximate Fig. 3(c) rule fired: the rewrite deliberately
          changes concrete semantics (drops a perturbation that is tiny
          w.r.t. the divisor) and must not be held to exact equality *)
}
(** One fired rule application, recorded by {!simplify_traced} for
    post-hoc soundness checking ({!Analysis.Rewrite}). *)

val simplify_traced : ctx -> Ast.t -> Ast.t * rewrite list
(** [simplify] that also returns every rule application it fired, in
    firing order.  [simplify c e = fst (simplify_traced c e)]. *)


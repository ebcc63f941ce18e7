(** On-the-fly canonicalization (\u{00a7}6).

    Rather than rewriting pGraphs, Syno discards any candidate action
    that would create an uncanonical form.  The rules implemented here:

    {ul
    {- {b expression normal form}: a view primitive whose freshly built
       coordinate expressions are not already in TRS normal form is
       redundant — a structurally simpler construction of the same (or
       almost the same, under the approximate rules of Fig. 3(c))
       semantics exists.  This subsumes "Merge cannot be above Split"
       and friends (Fig. 3(a), (c));}
    {- {b commuting-action ordering}: when an action commutes with the
       previously applied one (they touch disjoint frontier dims), only
       the ordering with non-decreasing action keys is canonical.  With
       contractions ranked above views this also implements "push down
       1-to-1 views after contractions" (Fig. 3(b));}
    {- {b futile contractions}: no [Expand] of a [Reduce]-created dim;
       no [Match] that strands a reduction iterator in a single weight
       group; [Unfold] may involve at most one reduced coordinate;}
    {- {b occurrence budgets} for the restricted primitives [Expand],
       [Stride], [Shift] (\u{00a7}5.2);}
    {- {b window sanity}: an [Unfold] window must not exceed the main
       dimension under any extracted valuation.}} *)

type config = {
  simplify_ctx : Coord.Simplify.ctx;
  max_expand : int;  (** default 1 *)
  max_stride : int;  (** default 1 *)
  max_shift : int;  (** default 2 *)
  max_reduce : int;  (** default 4 *)
  max_frontier : int;  (** frontier dims cap, default 8 *)
}

val default_config : Coord.Simplify.ctx -> config

val check : config -> Graph.t -> Prim.t -> (Graph.t, string) result
(** [check cfg g prim] applies [prim] and validates canonicality;
    [Error reason] if the action is inapplicable or uncanonical.
    [reason] is a fixed string naming the rule that rejected the
    action (or {!Graph.apply}'s structural reason); it does not name the
    actions involved, so a rejection formats nothing.  The search
    rejects a large share of the actions it tries and discards the
    reason. *)

val is_canonical : config -> Graph.t -> Prim.t -> bool

val trace_is_canonical : config -> Shape.Size.t list -> Prim.t list -> bool
(** Replay a whole trace from an output shape through [check] — used by
    the Table 3 / \u{00a7}9.4 canonical-rate experiments. *)

(** Shape distance (\u{00a7}7.1): a lower bound on the number of primitives
    that must still be applied to a partial pGraph before its frontier
    can match the desired input shape.

    The metric partitions the current and desired dimensions into
    {e reshape groups} — future primitives only act within a group —
    and charges each group {!group_cost}.  Dimensions sharing a primary
    variable are forced into one group; coefficient-only dimensions
    float, and a current-side one may form a group of its own (an
    elimination consumes it).  Group costs add up, so the minimum over
    all groupings is computed exactly by a DP over bitmasks of the
    units and coefficient-only dimensions: [O(3^n)] for [n] of them,
    with no cap on the groupings considered.

    The result is the true minimum over groupings, so it never
    overestimates and pruning with it (Algorithm 1, line 20) cannot
    discard a reachable completion.  A search over groupings that stops
    after a fixed number of them can return more than the minimum, and
    so prune states that are soundly reachable. *)

type t

val create : unit -> t
(** A distance calculator with its own memo table, keyed by the sorted
    current and desired multisets, and its own scratch for the DP, which
    grows to the largest frontier seen and is reused.  Nothing is shared
    between two [t]s, so a [t] belongs to one domain: MCTS makes one per
    tree, the exhaustive and random syntheses one per call.  The memo is
    deliberately not shared across searches: the distance of a frontier
    never changes, but a process-wide table would make a search's cost
    depend on the searches run before it in the same process (a
    benchmark that repeats each seed would time the table, not the
    search), and a one-shot [syno search] would gain nothing from it. *)

val distance :
  t -> current:Shape.Size.t list -> desired:Shape.Size.t list -> int option
(** [None] when no grouping scheme is feasible, i.e. the desired shape
    is unreachable with the helpful primitives (Merge, Split, Unfold,
    Expand) alone. *)

val within :
  t -> current:Shape.Size.t list -> desired:Shape.Size.t list -> budget:int -> bool
(** [within ~budget] iff the distance exists and is [<= budget]. *)

val group_cost : Shape.Size.t list -> Shape.Size.t list -> int option
(** [group_cost lhs rhs]: the steps charged to one reshape group that
    turns the current dimensions [lhs] into the desired dimensions
    [rhs] — [#lhs + #rhs - 2] regroupings (Merge/Split), at least one
    elimination when the group's product shrinks, one Reduce when
    [lhs] is empty, nothing when [lhs] and [rhs] are the same multiset.
    [None] when the group's product cannot shrink to [rhs]'s by
    eliminations.  {!distance} charges its groups by the same rule,
    computed from integer summaries of each group (dim counts, constant
    products, an exponent vector) instead of these lists. *)

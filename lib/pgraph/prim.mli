(** The Syno primitive set (Table 1), viewed as {e actions} applied to a
    partial pGraph during bottom-up synthesis.

    The synthesis state (see {!Graph}) maintains a {e frontier}: the
    list of coordinate dimensions of the (partial) data-input tensor,
    each carrying an expression over the output and reduction
    iterators.  An action transforms the frontier:

    {ul
    {- [Split (p, q)] combines the major frontier dim [p] (domain
       [G]) and the minor dim [q] (domain [B]) into one dim [B*i + j]
       of domain [G*B], placed at [min p q];}
    {- [Merge (p, b)] splits dim [p] (domain [N], [b] must divide [N])
       into [i / b] of domain [N/b] and [i % b] of domain [b];}
    {- [Shift p] rewrites dim [p] to [(i + 1) % N];}
    {- [Unfold (p, w)] folds window dim [w] (domain [K]) into dim [p]
       (domain [N]) as [i + j - K/2] (out-of-bounds clipped);}
    {- [Expand p] deletes dim [p]: the input no longer depends on it,
       i.e. data is repeated along that output coordinate;}
    {- [Stride (p, s)] rewrites dim [p] (domain [K]) to [s * i] of
       domain [s * K];}
    {- [Reduce n] appends a fresh reduction dimension of domain [n];}
    {- [Share (p, g)] assigns the (bare-iterator) dim [p] to weight
       group [g] while keeping it on the frontier: the data tensor and
       the weight are indexed by the same expression and multiplied;}
    {- [Match p] moves the (bare-iterator) dim [p] off the frontier
       into the most recent weight group — the implicit step
       accompanying [Share] in \u{00a7}5.3.}} *)

type group =
  | Current_group  (** extend the weight tensor of the last [Share] *)
  | New_group  (** start a new weight tensor *)

type t =
  | Split of int * int
  | Merge of int * Shape.Size.t
  | Shift of int
  | Unfold of int * int
  | Expand of int
  | Stride of int * Shape.Size.t
  | Reduce of Shape.Size.t
  | Share of int * group
  | Match of int

type kind =
  | K_split
  | K_merge
  | K_shift
  | K_unfold
  | K_expand
  | K_stride
  | K_reduce
  | K_share
  | K_match

val kind : t -> kind
val is_view : kind -> bool
(** Views (Table 1): Split, Merge, Shift, Unfold, Expand, Stride. *)

val positions : t -> int list
(** Frontier positions the action touches (empty for [Reduce]). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Size = Shape.Size

type group =
  | Current_group
  | New_group

type t =
  | Split of int * int
  | Merge of int * Size.t
  | Shift of int
  | Unfold of int * int
  | Expand of int
  | Stride of int * Size.t
  | Reduce of Size.t
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

let kind = function
  | Split _ -> K_split
  | Merge _ -> K_merge
  | Shift _ -> K_shift
  | Unfold _ -> K_unfold
  | Expand _ -> K_expand
  | Stride _ -> K_stride
  | Reduce _ -> K_reduce
  | Share _ -> K_share
  | Match _ -> K_match

let is_view = function
  | K_split | K_merge | K_shift | K_unfold | K_expand | K_stride -> true
  | K_reduce | K_share | K_match -> false

let positions = function
  | Split (p, q) -> [ p; q ]
  | Merge (p, _) | Shift p | Expand p | Stride (p, _) | Share (p, _) | Match p -> [ p ]
  | Unfold (p, w) -> [ p; w ]
  | Reduce _ -> []

let compare = Stdlib.compare
let equal a b = compare a b = 0

let pp ppf = function
  | Split (p, q) -> Format.fprintf ppf "Split@(%d,%d)" p q
  | Merge (p, b) -> Format.fprintf ppf "Merge(%a)@%d" Size.pp b p
  | Shift p -> Format.fprintf ppf "Shift@%d" p
  | Unfold (p, w) -> Format.fprintf ppf "Unfold@(%d,%d)" p w
  | Expand p -> Format.fprintf ppf "Expand@%d" p
  | Stride (p, s) -> Format.fprintf ppf "Stride(%a)@%d" Size.pp s p
  | Reduce n -> Format.fprintf ppf "Reduce(%a)" Size.pp n
  | Share (p, Current_group) -> Format.fprintf ppf "Share@%d" p
  | Share (p, New_group) -> Format.fprintf ppf "Share*@%d" p
  | Match p -> Format.fprintf ppf "Match@%d" p

let to_string p = Format.asprintf "%a" pp p

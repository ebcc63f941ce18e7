module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify

type config = {
  simplify_ctx : Simplify.ctx;
  max_expand : int;
  max_stride : int;
  max_shift : int;
  max_reduce : int;
  max_frontier : int;
}

let default_config simplify_ctx =
  { simplify_ctx; max_expand = 1; max_stride = 1; max_shift = 2; max_reduce = 4; max_frontier = 8 }

let ( let* ) r f = Result.bind r f

(* For-all-valuations size comparison (footnote 4 of the paper). *)
let size_le ctx a b =
  match Simplify.valuations ctx with
  | [] -> false
  | vs ->
      List.for_all
        (fun v ->
          match (Valuation.size_opt v a, Valuation.size_opt v b) with
          | Some x, Some y -> x <= y
          | _, _ -> false)
        vs

(* --- Occurrence budgets ------------------------------------------------ *)

let check_budgets cfg g prim =
  let over kind limit reason =
    if Graph.counts g ~kind + 1 > limit then Error reason else Ok ()
  in
  match Prim.kind prim with
  | Prim.K_expand -> over Prim.K_expand cfg.max_expand "Expand budget exceeded"
  | Prim.K_stride -> over Prim.K_stride cfg.max_stride "Stride budget exceeded"
  | Prim.K_shift -> over Prim.K_shift cfg.max_shift "Shift budget exceeded"
  | Prim.K_reduce -> over Prim.K_reduce cfg.max_reduce "Reduce budget exceeded"
  | Prim.K_split | Prim.K_merge | Prim.K_unfold | Prim.K_share | Prim.K_match -> Ok ()

(* --- Futile-contraction rules ------------------------------------------ *)

let dim_has_reduction (d : Graph.dim) =
  List.exists (fun it -> it.Ast.role = Ast.Reduction) (Ast.iters d.Graph.expr)

let check_contraction_rules cfg g prim =
  let dim p = List.nth (Graph.frontier g) p in
  match prim with
  | Prim.Expand p ->
      if (dim p).Graph.origin = Some Prim.K_reduce then
        Error "Expand of a Reduce dim only scales the result"
      else if dim_has_reduction (dim p) then Error "Expand of a reduced coordinate"
      else Ok ()
  | Prim.Unfold (p, w) ->
      if dim_has_reduction (dim p) && dim_has_reduction (dim w) then
        Error "Unfold allows at most one reduced coordinate"
      else if not (size_le cfg.simplify_ctx (dim w).Graph.size (dim p).Graph.size) then
        Error "Unfold window exceeds the main dimension"
      else Ok ()
  | Prim.Reduce n -> if Size.is_constant n && Size.constant n = 1 then Error "Reduce(1)" else Ok ()
  | Prim.Match p -> (
      let d = dim p in
      match d.Graph.expr with
      | Ast.Iter it when it.Ast.role = Ast.Reduction ->
          let in_groups =
            List.length
              (List.filter
                 (List.exists (fun j -> j.Ast.id = it.Ast.id))
                 (Graph.weights g))
          in
          let elsewhere_in_frontier =
            List.exists
              (fun (d' : Graph.dim) ->
                d' != d && List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters d'.Graph.expr))
              (Graph.frontier g)
          in
          (* After the Match the iterator must still connect at least two
             tensors, otherwise the reduction is a constant factor. *)
          if in_groups >= 1 || elsewhere_in_frontier then Ok ()
          else Error "Match would strand a reduction iterator in one weight group"
      | Ast.Iter _ -> Ok ()
      | Ast.Const _ | Ast.Size_const _ | Ast.Add _ | Ast.Sub _ | Ast.Mul _ | Ast.Div _
      | Ast.Mod _ ->
          Ok () (* Graph.apply will reject non-bare dims anyway *))
  | Prim.Split _ | Prim.Merge _ | Prim.Shift _ | Prim.Stride _ | Prim.Share _ -> Ok ()

(* --- Expression normal form -------------------------------------------- *)

(* The freshly created dims of a view must already be in TRS normal
   form; otherwise the same (or an almost identical) operator has a
   syntactically simpler construction, which is the canonical one. *)
let check_expr_normal_form cfg g g' prim =
  if not (Prim.is_view (Prim.kind prim)) then Ok ()
  else
    let before = Graph.frontier g in
    let unnormalized (d : Graph.dim) =
      (not (List.memq d before))
      && not (Ast.equal (Simplify.simplify cfg.simplify_ctx d.Graph.expr) d.Graph.expr)
    in
    if List.exists unnormalized (Graph.frontier g') then
      Error "a fresh coordinate expression is not in normal form"
    else Ok ()

(* --- Commuting-action ordering ----------------------------------------- *)

let kind_rank = function
  | Prim.K_shift -> 0
  | Prim.K_stride -> 1
  | Prim.K_merge -> 2
  | Prim.K_split -> 3
  | Prim.K_unfold -> 4
  | Prim.K_expand -> 5
  | Prim.K_reduce -> 6
  | Prim.K_share -> 7
  | Prim.K_match -> 8

(* Frontier positions the previous action wrote, expressed in the
   current frontier's indexing. *)
let written_positions frontier_len = function
  | Prim.Split (p, q) -> [ min p q ]
  | Prim.Merge (p, _) -> [ p; p + 1 ]
  | Prim.Shift p | Prim.Stride (p, _) | Prim.Share (p, _) -> [ p ]
  | Prim.Unfold (p, w) -> [ (if w < p then p - 1 else p) ]
  | Prim.Expand _ | Prim.Match _ -> []
  | Prim.Reduce _ -> [ frontier_len - 1 ]

let action_key prim =
  let pos = match Prim.positions prim with [] -> max_int | p :: _ -> p in
  (kind_rank (Prim.kind prim), pos, prim)

let key_le (r1, p1, a1) (r2, p2, a2) =
  r1 < r2 || (r1 = r2 && (p1 < p2 || (p1 = p2 && Prim.compare a1 a2 <= 0)))

let check_ordering g prim =
  match Graph.last_prim g with
  | None -> Ok ()
  | Some last ->
      let written = written_positions (List.length (Graph.frontier g)) last in
      let read = Prim.positions prim in
      (* Disjoint touched positions means the two actions could have
         been applied in either order with the same result.  Weight
         actions (Share / Match) are stateful with respect to the
         current weight group, so they never commute with each other. *)
      let weight_action p =
        match Prim.kind p with
        | Prim.K_share | Prim.K_match -> true
        | Prim.K_split | Prim.K_merge | Prim.K_shift | Prim.K_unfold | Prim.K_expand
        | Prim.K_stride | Prim.K_reduce ->
            false
      in
      let commute =
        (not (List.exists (fun p -> List.mem p read) written))
        && not (weight_action last && weight_action prim)
      in
      if (not commute) || key_le (action_key last) (action_key prim) then Ok ()
      else Error "uncanonical ordering of commuting actions"

(* --- Entry points ------------------------------------------------------- *)

(* Every dimension size must be a positive integer under every
   extracted valuation, otherwise the operator cannot be instantiated
   on the backbone's concrete shapes. *)
let check_concrete_sizes cfg g' =
  let ok size =
    match Simplify.valuations cfg.simplify_ctx with
    | [] -> true
    | vs -> List.for_all (fun v -> Valuation.size_opt v size <> None) vs
  in
  if List.for_all (fun (d : Graph.dim) -> ok d.Graph.size) (Graph.frontier g') then Ok ()
  else Error "a dimension size is not integral under some valuation"

let check cfg g prim =
  let* () = check_budgets cfg g prim in
  let* () = check_contraction_rules cfg g prim in
  let* () = check_ordering g prim in
  let* g' = Graph.apply g prim in
  if List.length (Graph.frontier g') > cfg.max_frontier then Error "frontier too wide"
  else
    let* () = check_concrete_sizes cfg g' in
    let* () = check_expr_normal_form cfg g g' prim in
    Ok g'

let is_canonical cfg g prim = Result.is_ok (check cfg g prim)

let trace_is_canonical cfg output_shape trace =
  let rec go g = function
    | [] -> true
    | p :: rest -> ( match check cfg g p with Ok g' -> go g' rest | Error _ -> false)
  in
  go (Graph.init output_shape) trace

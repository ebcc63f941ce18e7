module Size = Shape.Size
module Ast = Coord.Ast

type dim = {
  expr : Ast.t;
  size : Size.t;
  origin : Prim.kind option;
  pending_stride : bool;
}

type t = {
  frontier : dim list;
  weights : Ast.iter list list;
  spatial : Ast.iter list;
  reductions : Ast.iter list;
  trace_rev : Prim.t list;
  next_id : int;
}

let init output_shape =
  let spatial =
    List.mapi (fun id dom -> { Ast.id; dom; role = Ast.Spatial }) output_shape
  in
  let frontier =
    List.map
      (fun it -> { expr = Ast.iter it; size = it.Ast.dom; origin = None; pending_stride = false })
      spatial
  in
  { frontier; weights = []; spatial; reductions = []; trace_rev = []; next_id = List.length spatial }

let frontier g = g.frontier
let frontier_sizes g = List.map (fun d -> d.size) g.frontier
let weights g = g.weights
let trace g = List.rev g.trace_rev
let num_prims g = List.length g.trace_rev
let counts g ~kind = List.length (List.filter (fun p -> Prim.kind p = kind) g.trace_rev)
let last_prim g = match g.trace_rev with [] -> None | p :: _ -> Some p

let ( let* ) r f = Result.bind r f

let nth_dim g p =
  if p < 0 || p >= List.length g.frontier then Error "position out of range"
  else Ok (List.nth g.frontier p)

(* Replace dims [p .. p + removed - 1] with [inserted]. *)
let splice frontier p removed inserted =
  let rec go i = function
    | rest when i = p -> inserted @ drop removed rest
    | d :: rest -> d :: go (i + 1) rest
    | [] -> invalid_arg "splice"
  and drop n l = if n = 0 then l else match l with _ :: tl -> drop (n - 1) tl | [] -> [] in
  go 0 frontier

let bare_iter d =
  match d.expr with
  | Ast.Iter it -> Some it
  | Ast.Const _ | Ast.Size_const _ | Ast.Add _ | Ast.Sub _ | Ast.Mul _ | Ast.Div _
  | Ast.Mod _ ->
      None

let no_pending d label = if d.pending_stride then Error (label ^ " of a pending-stride dim") else Ok ()

let record g prim g' = { g' with trace_rev = prim :: g.trace_rev }

let apply g prim =
  match prim with
  | Prim.Split (p, q) ->
      if p = q then Error "Split requires two distinct dims"
      else
        let* a = nth_dim g p in
        (* major *)
        let* b = nth_dim g q in
        (* minor *)
        let* () = no_pending a "Split" in
        let* () = no_pending b "Split" in
        let dim =
          {
            expr = Coord.Simplify.flatten (Ast.add (Ast.mul b.size a.expr) b.expr);
            size = Size.mul a.size b.size;
            origin = Some Prim.K_split;
            pending_stride = false;
          }
        in
        (* Remove the higher position first so indices stay valid, then
           replace the lower one with the combined dim. *)
        let hi = max p q and lo = min p q in
        let frontier = splice (splice g.frontier hi 1 []) lo 1 [ dim ] in
        Ok (record g prim { g with frontier })
  | Prim.Merge (p, b) ->
      let* d = nth_dim g p in
      let* () = no_pending d "Merge" in
      if Size.is_one b then Error "Merge block of 1"
      else begin
        match Size.div d.size b with
        | None -> Error "Merge block does not divide the dimension"
        | Some q when Size.is_one q -> Error "Merge block equals the dimension"
        | Some q ->
            let quo =
              { expr = Ast.div d.expr b; size = q; origin = Some Prim.K_merge; pending_stride = false }
            in
            let rem =
              {
                expr = Ast.modulo d.expr b;
                size = b;
                origin = Some Prim.K_merge;
                pending_stride = false;
              }
            in
            Ok (record g prim { g with frontier = splice g.frontier p 1 [ quo; rem ] })
      end
  | Prim.Shift p ->
      let* d = nth_dim g p in
      let* () = no_pending d "Shift" in
      let dim =
        {
          expr = Ast.modulo (Coord.Simplify.flatten (Ast.add d.expr (Ast.const 1))) d.size;
          size = d.size;
          origin = Some Prim.K_shift;
          pending_stride = false;
        }
      in
      Ok (record g prim { g with frontier = splice g.frontier p 1 [ dim ] })
  | Prim.Unfold (p, w) ->
      if p = w then Error "Unfold window must differ from the main dim"
      else
        let* main = nth_dim g p in
        let* win = nth_dim g w in
        let* () = no_pending main "Unfold (main)" in
        let dim =
          {
            expr =
              Coord.Simplify.flatten
                (Ast.add main.expr
                   (Ast.sub win.expr (Ast.div (Ast.Size_const win.size) (Size.of_int 2))));
            size = main.size;
            origin = Some Prim.K_unfold;
            pending_stride = false;
          }
        in
        (* Remove the window dim first so [p]'s index stays valid. *)
        let frontier =
          if w > p then splice (splice g.frontier w 1 []) p 1 [ dim ]
          else splice (splice g.frontier p 1 [ dim ]) w 1 []
        in
        Ok (record g prim { g with frontier })
  | Prim.Expand p ->
      let* d = nth_dim g p in
      let* () = no_pending d "Expand" in
      Ok (record g prim { g with frontier = splice g.frontier p 1 [] })
  | Prim.Stride (p, s) ->
      let* d = nth_dim g p in
      let* () = no_pending d "Stride" in
      if Size.is_one s then Error "Stride of 1"
      else
        let dim =
          {
            expr = Ast.mul s d.expr;
            size = Size.mul s d.size;
            origin = Some Prim.K_stride;
            pending_stride = true;
          }
        in
        Ok (record g prim { g with frontier = splice g.frontier p 1 [ dim ] })
  | Prim.Reduce n ->
      let it = { Ast.id = g.next_id; dom = n; role = Ast.Reduction } in
      let dim = { expr = Ast.iter it; size = n; origin = Some Prim.K_reduce; pending_stride = false } in
      Ok
        (record g prim
           {
             g with
             frontier = g.frontier @ [ dim ];
             reductions = it :: g.reductions;
             next_id = g.next_id + 1;
           })
  | Prim.Share (p, group) ->
      let* d = nth_dim g p in
      let* () = no_pending d "Share" in
      (match bare_iter d with
      | None -> Error "Share requires a bare-iterator dim (weights are never viewed)"
      | Some it -> (
          match (group, List.rev g.weights) with
          | Prim.New_group, _ -> Ok (record g prim { g with weights = g.weights @ [ [ it ] ] })
          | Prim.Current_group, [] -> Error "Share: no current weight group"
          | Prim.Current_group, last :: _ ->
              if List.exists (fun j -> j.Ast.id = it.Ast.id) last then
                Error "Share: iterator already in the current weight group"
              else
                let weights =
                  match List.rev g.weights with
                  | last :: before -> List.rev ((last @ [ it ]) :: before)
                  | [] -> assert false
                in
                Ok (record g prim { g with weights })))
  | Prim.Match p ->
      let* d = nth_dim g p in
      let* () = no_pending d "Match" in
      (match bare_iter d with
      | None -> Error "Match requires a bare-iterator dim"
      | Some it -> (
          match List.rev g.weights with
          | [] -> Error "Match: no weight group (Match accompanies Share)"
          | last :: before ->
              if List.exists (fun j -> j.Ast.id = it.Ast.id) last then
                Error "Match: iterator already in the current weight group"
              else
                let weights = List.rev ((last @ [ it ]) :: before) in
                Ok
                  (record g prim
                     { g with weights; frontier = splice g.frontier p 1 [] })))

let apply_exn g prim =
  match apply g prim with
  | Ok g' -> g'
  | Error msg -> invalid_arg (Printf.sprintf "Graph.apply %s: %s" (Prim.to_string prim) msg)

let apply_all g prims =
  List.fold_left (fun acc p -> Result.bind acc (fun g -> apply g p)) (Ok g) prims

(* --- Completion -------------------------------------------------------- *)

type operator = {
  op_output_iters : Ast.iter list;
  op_output_shape : Size.t list;
  op_input_exprs : Ast.t list;
  op_input_shape : Size.t list;
  op_weights : Ast.iter list list;
  op_reductions : Ast.iter list;
  op_trace : Prim.t list;
}

(* Greedy multiset matching of frontier dims against the desired input
   shape; returns the frontier dims permuted into desired order. *)
let match_shape frontier desired =
  let rec pick size = function
    | [] -> None
    | d :: rest when Size.equal d.size size -> Some (d, rest)
    | d :: rest -> (
        match pick size rest with
        | Some (found, remaining) -> Some (found, d :: remaining)
        | None -> None)
  in
  let rec go remaining = function
    | [] -> if remaining = [] then Some [] else None
    | size :: sizes -> (
        match pick size remaining with
        | None -> None
        | Some (d, rest) -> (
            match go rest sizes with Some tl -> Some (d :: tl) | None -> None))
  in
  go frontier desired

let matches g ~desired = match_shape g.frontier desired <> None

let iter_in_expr it e = List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters e)

let complete ?(allow_strided = false) g ~desired =
  match match_shape g.frontier desired with
  | None -> Error "frontier does not match the desired input shape"
  | Some ordered ->
      if (not allow_strided) && List.exists (fun d -> d.pending_stride) g.frontier then
        Error "pending Stride not consumed by a 1-to-many primitive"
      else
        let exprs = List.map (fun d -> d.expr) ordered in
        let in_frontier it = List.exists (iter_in_expr it) exprs in
        let weight_count it =
          List.length
            (List.filter (List.exists (fun j -> j.Ast.id = it.Ast.id)) g.weights)
        in
        let spatial_ok it = in_frontier it || weight_count it >= 1 in
        let reduction_ok it = in_frontier it || weight_count it >= 2 in
        if not (List.for_all spatial_ok g.spatial) then
          Error "an output iterator is unused: output data would be replicated"
        else if not (List.for_all reduction_ok (List.rev g.reductions)) then
          Error "a reduction iterator only scales the result (futile Reduce)"
        else
          Ok
            {
              op_output_iters = g.spatial;
              op_output_shape = List.map (fun it -> it.Ast.dom) g.spatial;
              op_input_exprs = exprs;
              op_input_shape = desired;
              op_weights = g.weights;
              op_reductions = List.rev g.reductions;
              op_trace = trace g;
            }

(* --- Printing ----------------------------------------------------------- *)

let pp_dim ppf d = Format.fprintf ppf "%a:%a" Ast.pp d.expr Size.pp d.size

let pp ppf g =
  Format.fprintf ppf "@[<v>frontier: [%a]@,weights: %a@,trace: %a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_dim)
    g.frontier
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf grp ->
         Format.fprintf ppf "[%a]"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
              (fun ppf it -> Format.fprintf ppf "%a:%a" Ast.pp (Ast.iter it) Size.pp it.Ast.dom))
           grp))
    g.weights
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") Prim.pp)
    (trace g)

let pp_operator ppf op =
  let pp_iters ppf its =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf it -> Format.fprintf ppf "%a:%a" Ast.pp (Ast.iter it) Size.pp it.Ast.dom)
      ppf its
  in
  Format.fprintf ppf "@[<v>out[%a] (+)= in[%a]%a@]" pp_iters op.op_output_iters
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Ast.pp)
    op.op_input_exprs
    (fun ppf groups ->
      List.iter (fun grp -> Format.fprintf ppf " * w[%a]" pp_iters grp) groups)
    op.op_weights

let operator_signature op = Format.asprintf "%a" pp_operator op

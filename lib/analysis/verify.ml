module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Staged = Lower.Staged_exec

type region = {
  rg_what : string;
  rg_dim : int;
  rg_expr : Ast.t;
  rg_window : int * int;
  rg_below : (int * int) option;
  rg_above : (int * int) option;
}

type diagnostic = {
  dg_what : string;
  dg_dim : int;
  dg_expr : Ast.t;
  dg_range : Interval.t;
  dg_window : int * int;
  dg_reason : string;
}

type verdict =
  | Proved
  | Padded of region list
  | Violation of diagnostic

let pp_range ppf (lo, hi) = Format.fprintf ppf "[%d, %d]" lo hi

let region_to_string r =
  let side name = function
    | None -> ""
    | Some rng -> Format.asprintf " %s=%a" name pp_range rng
  in
  Format.asprintf "%s dim %d expr %a window %a%s%s" r.rg_what r.rg_dim Ast.pp r.rg_expr
    pp_range r.rg_window
    (side "below" r.rg_below)
    (side "above" r.rg_above)

let diagnostic_to_string d =
  Format.asprintf "%s dim %d expr %a range %a window %a: %s" d.dg_what d.dg_dim Ast.pp
    d.dg_expr Interval.pp d.dg_range pp_range d.dg_window d.dg_reason

let verdict_to_string = function
  | Proved -> "proved"
  | Padded regions ->
      Format.asprintf "padded (%d region%s): %s" (List.length regions)
        (if List.length regions = 1 then "" else "s")
        (String.concat "; " (List.map region_to_string regions))
  | Violation d -> "violation: " ^ diagnostic_to_string d

(* Classify one access: its value interval against the inclusive
   window [lo, hi]. *)
let check ~what ~dim ~expr iv ~lo ~hi =
  if Interval.within iv ~lo ~hi then `Proved
  else if Interval.disjoint iv ~lo ~hi then
    `Violation
      {
        dg_what = what;
        dg_dim = dim;
        dg_expr = expr;
        dg_range = iv;
        dg_window = (lo, hi);
        dg_reason = "access range never intersects the window";
      }
  else
    `Padded
      {
        rg_what = what;
        rg_dim = dim;
        rg_expr = expr;
        rg_window = (lo, hi);
        rg_below = (if iv.Interval.lo < lo then Some (iv.Interval.lo, lo - 1) else None);
        rg_above = (if iv.Interval.hi > hi then Some (hi + 1, iv.Interval.hi) else None);
      }

(* Fold classified accesses into a verdict: first violation wins,
   otherwise collect the padded regions. *)
let conclude results =
  let rec go regions = function
    | [] -> if regions = [] then Proved else Padded (List.rev regions)
    | `Proved :: rest -> go regions rest
    | `Padded r :: rest -> go (r :: regions) rest
    | `Violation d :: _ -> Violation d
  in
  go [] results

let operator (op : Graph.operator) valuation =
  let lookup = Valuation.lookup valuation in
  let inputs =
    List.mapi
      (fun dim (expr, size) ->
        let extent = Size.eval size lookup in
        let iv = Interval.eval ~lookup expr in
        check ~what:"input" ~dim ~expr iv ~lo:0 ~hi:(extent - 1))
      (List.combine op.Graph.op_input_exprs op.Graph.op_input_shape)
  in
  (* Weight tensors are indexed by bare iterators over exactly their
     domain, so in-bounds holds whenever the iterators are genuine —
     but a corrupted trace can carry an arbitrary expression here, and
     unlike the input gather the reference executor does NOT clip
     weight offsets, so a disproof matters. *)
  let weights =
    List.concat
      (List.mapi
         (fun g grp ->
           List.mapi
             (fun dim it ->
               let extent = Size.eval it.Ast.dom lookup in
               let expr = Ast.iter it in
               let iv = Interval.eval ~lookup expr in
               check
                 ~what:(Printf.sprintf "weight %d" g)
                 ~dim ~expr iv ~lo:0 ~hi:(extent - 1))
             grp)
         op.Graph.op_weights)
  in
  conclude (inputs @ weights)

let staged_of compiled =
  let lookup = Valuation.lookup (Staged.valuation compiled) in
  let stages = Staged.access_plan compiled in
  let n_stages = List.length stages in
  let results =
    List.concat
      (List.mapi
         (fun k accesses ->
           let what =
             if k = n_stages - 1 then "final" else Printf.sprintf "stage %d" k
           in
           List.mapi
             (fun dim (a : Staged.access) ->
               let iv =
                 match a.Staged.acc_values with
                 | Some (lo, hi) -> Interval.make lo hi
                 | None -> Interval.eval ~lookup a.Staged.acc_expr
               in
               check ~what ~dim ~expr:a.Staged.acc_expr iv ~lo:a.Staged.acc_lo
                 ~hi:(a.Staged.acc_lo + a.Staged.acc_extent - 1))
             accesses)
         stages)
  in
  conclude results

let staged op valuation = staged_of (Staged.compile op valuation)

(* [operator], then the staged verdict [staged ()] unless the direct
   lowering already violates. *)
let combine op valuation staged =
  match operator op valuation with
  | Violation _ as v -> v
  | direct -> (
      match (direct, staged ()) with
      | _, (Violation _ as v) -> v
      | Proved, Proved -> Proved
      | Padded a, Proved | Proved, Padded a -> Padded a
      | Padded a, Padded b -> Padded (a @ b)
      | Violation _, _ -> assert false)

let program op valuation = combine op valuation (fun () -> staged op valuation)

let program_of compiled =
  combine (Staged.operator compiled) (Staged.valuation compiled) (fun () -> staged_of compiled)

let program_opt op valuation = try Some (program op valuation) with Failure _ -> None

let admit op valuations =
  let rec go = function
    | [] -> Ok ()
    | v :: rest -> (
        match program_opt op v with
        | None | Some Proved | Some (Padded _) -> go rest
        | Some (Violation d) ->
            Error (Robust.Guard.Static_violation (diagnostic_to_string d)))
  in
  go valuations

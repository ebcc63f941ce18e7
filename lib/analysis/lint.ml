module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Flops = Pgraph.Flops

type severity = Error | Warning

type finding = { lint_rule : string; lint_severity : severity; lint_detail : string }

let finding_to_string f =
  Printf.sprintf "%s %s: %s" f.lint_rule
    (match f.lint_severity with Error -> "error" | Warning -> "warning")
    f.lint_detail

let errors = List.filter (fun f -> f.lint_severity = Error)

type cost = {
  c_flops : int;
  c_params : int;
  c_input_elems : int;
  c_output_elems : int;
  c_reduction_elems : int;
  c_gather_elems : int;
  c_peak_elems : int;
}

(* Recomputed from the operator record alone — deliberately not via
   [Pgraph.Flops], so the [cost-drift] rule below cross-checks the two
   derivations against each other. *)
let cost (op : Graph.operator) valuation =
  let lookup = Valuation.lookup valuation in
  let prod sizes = List.fold_left (fun acc s -> acc * Size.eval s lookup) 1 sizes in
  let out = prod op.Graph.op_output_shape in
  let inp = prod op.Graph.op_input_shape in
  let red = prod (List.map (fun it -> it.Ast.dom) op.Graph.op_reductions) in
  let params =
    List.fold_left
      (fun acc grp -> acc + prod (List.map (fun it -> it.Ast.dom) grp))
      0 op.Graph.op_weights
  in
  let gather = out * red in
  {
    c_flops = 2 * out * red;
    c_params = params;
    c_input_elems = inp;
    c_output_elems = out;
    c_reduction_elems = red;
    c_gather_elems = gather;
    c_peak_elems = inp + out + params + gather;
  }

let it_name (it : Ast.iter) =
  (match it.Ast.role with Ast.Spatial -> "i" | Ast.Reduction -> "r")
  ^ string_of_int it.Ast.id

(* Where an iterator reaches: the input gather, and how many weight
   groups. *)
let reaches (op : Graph.operator) id =
  let in_expr e = List.exists (fun (j : Ast.iter) -> j.Ast.id = id) (Ast.iters e) in
  let in_input = List.exists in_expr op.Graph.op_input_exprs in
  let weight_groups =
    List.length
      (List.filter (List.exists (fun (j : Ast.iter) -> j.Ast.id = id)) op.Graph.op_weights)
  in
  (in_input, weight_groups)

let occurrences op id =
  let in_input, weight_groups = reaches op id in
  (if in_input then 1 else 0) + weight_groups

(* Mirrors the quality condition of [Graph.complete]: a reduction is a
   genuine data reduction when it sweeps the input, or contracts at
   least two weight tensors against each other. *)
let reduction_futile op id =
  let in_input, weight_groups = reaches op id in
  (not in_input) && weight_groups < 2

let finding rule severity detail =
  { lint_rule = rule; lint_severity = severity; lint_detail = detail }

(* --- Structural rules -------------------------------------------------- *)

let check_unknown_iterators (op : Graph.operator) =
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (it : Ast.iter) -> Hashtbl.replace declared it.Ast.id ())
    (op.Graph.op_output_iters @ op.Graph.op_reductions);
  let used =
    List.concat_map Ast.iters op.Graph.op_input_exprs @ List.concat op.Graph.op_weights
  in
  List.filter_map
    (fun (it : Ast.iter) ->
      if Hashtbl.mem declared it.Ast.id then None
      else
        Some
          (finding "unknown-iterator" Error
             (Printf.sprintf "%s is used but never declared by the operator" (it_name it))))
    (List.sort_uniq Ast.compare_iter used)

let check_dead_axes (op : Graph.operator) =
  List.filter_map
    (fun (it : Ast.iter) ->
      if occurrences op it.Ast.id = 0 then
        Some
          (finding "dead-axis" Error
             (Printf.sprintf "output iterator %s reaches neither the input nor any weight: the output is replicated along it"
                (it_name it)))
      else None)
    op.Graph.op_output_iters

let check_futile_reductions (op : Graph.operator) =
  List.filter_map
    (fun (it : Ast.iter) ->
      if not (reduction_futile op it.Ast.id) then None
      else if occurrences op it.Ast.id = 0 then
        Some
          (finding "futile-reduction" Error
             (Printf.sprintf "reduction %s is a contraction label that reaches no tensor: it only scales the output by its domain"
                (it_name it)))
      else
        Some
          (finding "futile-reduction" Error
             (Printf.sprintf "reduction %s never sweeps the input and contracts a single weight tensor: it folds to a precomputable constant"
                (it_name it))))
    op.Graph.op_reductions

(* --- Trace replay: degenerate primitives & unreduced Expands ----------- *)

let size_is_one valuations s =
  valuations <> []
  && List.for_all
       (fun v ->
         match Size.eval s (Valuation.lookup v) with
         | exception Failure _ -> false
         | n -> n = 1)
       valuations

let replay ~valuations (op : Graph.operator) =
  let degenerate idx what =
    finding "degenerate-size-1" Warning
      (Printf.sprintf "trace step %d: %s" idx what)
  in
  let rec go g idx findings expands = function
    | [] -> Ok (List.rev findings, List.rev expands)
    | prim :: rest -> (
        let dims = Graph.frontier g in
        let dim_at p = List.nth_opt dims p in
        let findings =
          match prim with
          | Prim.Merge (_, b) when size_is_one valuations b ->
              degenerate idx "Merge by a block of size 1 is the identity" :: findings
          | Prim.Stride (_, s) when size_is_one valuations s ->
              degenerate idx "Stride by 1 is the identity" :: findings
          | Prim.Reduce n when size_is_one valuations n ->
              degenerate idx "Reduce over a domain of size 1 sums a single term" :: findings
          | Prim.Unfold (_, w) -> (
              match dim_at w with
              | Some d when size_is_one valuations d.Graph.size ->
                  degenerate idx "Unfold of a 1-wide window is the identity" :: findings
              | _ -> findings)
          | Prim.Shift p -> (
              match dim_at p with
              | Some d when size_is_one valuations d.Graph.size ->
                  degenerate idx "Shift of a size-1 dim is the identity" :: findings
              | _ -> findings)
          | _ -> findings
        in
        let expands =
          match prim with
          | Prim.Expand p -> (
              match dim_at p with
              | Some d -> (idx, Ast.iters d.Graph.expr) :: expands
              | None -> expands)
          | _ -> expands
        in
        match Graph.apply g prim with
        | Error msg -> Error (idx, prim, msg)
        | Ok g' -> go g' (idx + 1) findings expands rest)
  in
  go (Graph.init op.Graph.op_output_shape) 0 [] [] op.Graph.op_trace

let check_trace ~valuations (op : Graph.operator) =
  match replay ~valuations op with
  | Error (idx, prim, msg) ->
      [
        finding "trace-mismatch" Error
          (Printf.sprintf "trace step %d (%s) does not replay: %s" idx
             (Prim.to_string prim) msg);
      ]
  | Ok (degenerate, expands) ->
      let unreduced =
        List.concat_map
          (fun (idx, iters) ->
            List.filter_map
              (fun (it : Ast.iter) ->
                match (it.Ast.role, occurrences op it.Ast.id) with
                | Ast.Spatial, 0 ->
                    Some
                      (finding "unreduced-expand" Error
                         (Printf.sprintf "trace step %d: Expand deleted the only use of %s; the output is replicated along it"
                            idx (it_name it)))
                | Ast.Reduction, _ when reduction_futile op it.Ast.id ->
                    Some
                      (finding "unreduced-expand" Error
                         (Printf.sprintf "trace step %d: Expand left reduction %s uncontracted; the reduction merely scales the output"
                            idx (it_name it)))
                | _ -> None)
              iters)
          expands
      in
      degenerate @ unreduced

(* --- Size-dependent rules ---------------------------------------------- *)

let check_degenerate_reductions ~valuations (op : Graph.operator) =
  List.filter_map
    (fun (it : Ast.iter) ->
      if size_is_one valuations it.Ast.dom then
        Some
          (finding "degenerate-size-1" Warning
             (Printf.sprintf "reduction %s has domain 1 under every valuation" (it_name it)))
      else None)
    op.Graph.op_reductions

(* Two findings from one certificate per valuation.  [all-border]: no
   access of any nest is proved in-window, so every access is clipped
   per output.  Legal, but a sign the candidate is all padding (or that
   the interval analysis lost it).  [guarded-nest]: some nest does not
   clip exactly ([Lower.Specialize.clips_exactly]) — a final dim is
   non-affine in a reduction iterator, or a listed dim moves with two
   or more of them — so some of its outputs can run the guarded
   loop. *)
let check_certificate ~valuations (op : Graph.operator) =
  List.concat_map
    (fun v ->
      match
        let staged = Lower.Staged_exec.compile op v in
        let cert = Regions.of_staged staged in
        (cert, Lower.Specialize.compile staged cert.Regions.rc_plan)
      with
      | exception _ -> []
      | cert, sp ->
          List.filter_map Fun.id
            [
              (if cert.Regions.rc_interior_fraction = 0.0 then
                 Some
                   (finding "all-border" Warning
                      (Printf.sprintf
                         "certificate proves no access in-window (%s): every access is clipped per output"
                         (Regions.summary_to_string cert)))
               else None);
              (if not (Lower.Specialize.clips_exactly sp) then
                 Some
                   (finding "guarded-nest" Warning
                      "a nest does not clip exactly: a final dim is non-affine in a reduction iterator, or a listed dim moves with two or more of them, so some outputs can run the guarded loop")
               else None);
            ])
    valuations

let check_cost_drift ~valuations (op : Graph.operator) =
  List.concat_map
    (fun v ->
      match cost op v with
      | exception Failure _ -> []
      | c ->
          let drift what ours theirs =
            if ours = theirs then None
            else
              Some
                (finding "cost-drift" Error
                   (Printf.sprintf "%s: lint recomputation %d <> Pgraph.Flops %d" what ours
                      theirs))
          in
          List.filter_map Fun.id
            [
              drift "flops" c.c_flops (Flops.naive_flops op v);
              drift "params" c.c_params (Flops.params op v);
              drift "gather elems" c.c_gather_elems (Flops.gather_elems op v);
              drift "peak elems" c.c_peak_elems (Flops.peak_footprint op v);
            ])
    valuations

let check ?(valuations = []) (op : Graph.operator) =
  check_unknown_iterators op @ check_dead_axes op @ check_futile_reductions op
  @ check_trace ~valuations op
  @ check_degenerate_reductions ~valuations op
  @ check_certificate ~valuations op
  @ check_cost_drift ~valuations op

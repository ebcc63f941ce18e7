(* A test-only oracle for [Lower.Reference.forward] and the gather of
   [Lower.Einsum_program]: the per-point semantics they compile, written
   out directly.  For every (output, reduction) point — outputs
   outermost in row-major order, then the reductions in row-major
   order — it evaluates each input coordinate and, unless a coordinate
   leaves its window, accumulates

     out[o] += x * w_0[idx_0] * ... * w_last[idx_last]

   from [+0.0], the product built from the input value in group order.
   The compiled forward must reproduce these outputs bit for bit, and
   the einsum program's gather these gathered values. *)

module Size = Shape.Size
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

type t = {
  out_shape : int array;
  in_shape : int array;
  w_shapes : int array array;
  spatial_ids : int array;
  reduction_ids : int array;
  reduction_doms : int array;
  indexers : (int array -> int) array;  (* one per input dim *)
  w_ids : int array array;  (* iterator ids per weight group *)
  env : int array;
}

let compile (op : Graph.operator) valuation =
  let lookup = Shape.Valuation.lookup valuation in
  let eval_size s = Size.eval s lookup in
  let ids its = Array.of_list (List.map (fun it -> it.Ast.id) its) in
  let spatial_ids = ids op.Graph.op_output_iters and reduction_ids = ids op.Graph.op_reductions in
  {
    out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape);
    in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape);
    w_shapes =
      Array.of_list
        (List.map
           (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
           op.Graph.op_weights);
    spatial_ids;
    reduction_ids;
    reduction_doms =
      Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions);
    indexers =
      Array.of_list (List.map (Lower.Reference.compile_expr lookup) op.Graph.op_input_exprs);
    w_ids = Array.of_list (List.map ids op.Graph.op_weights);
    env =
      Array.make (max 1 (1 + Array.fold_left max (-1) (Array.append spatial_ids reduction_ids))) 0;
  }

(* [body flat_out] at every (output x reduction) assignment of [env]. *)
let loop_nest t body =
  let out_total = Array.fold_left ( * ) 1 t.out_shape in
  let red_total = Array.fold_left ( * ) 1 t.reduction_doms in
  for flat_out = 0 to out_total - 1 do
    let rem = ref flat_out in
    for i = Array.length t.out_shape - 1 downto 0 do
      t.env.(t.spatial_ids.(i)) <- !rem mod t.out_shape.(i);
      rem := !rem / t.out_shape.(i)
    done;
    for flat_red = 0 to red_total - 1 do
      let rem = ref flat_red in
      for i = Array.length t.reduction_ids - 1 downto 0 do
        t.env.(t.reduction_ids.(i)) <- !rem mod t.reduction_doms.(i);
        rem := !rem / t.reduction_doms.(i)
      done;
      body flat_out
    done
  done

(* The input's flat offset at the current point; [-1] when clipped. *)
let input_offset t =
  let off = ref 0 and ok = ref true in
  Array.iteri
    (fun i f ->
      if !ok then begin
        let v = f t.env in
        if v < 0 || v >= t.in_shape.(i) then ok := false else off := (!off * t.in_shape.(i)) + v
      end)
    t.indexers;
  if !ok then !off else -1

let weight_offset t g =
  let off = ref 0 in
  Array.iteri (fun i id -> off := (!off * t.w_shapes.(g).(i)) + t.env.(id)) t.w_ids.(g);
  !off

let forward op valuation ~input ~weights =
  let t = compile op valuation in
  let w_datas = Array.of_list (List.map Tensor.unsafe_data weights) in
  let in_data = Tensor.unsafe_data input in
  let out = Tensor.create t.out_shape in
  let out_data = Tensor.unsafe_data out in
  loop_nest t (fun flat_out ->
      let off = input_offset t in
      if off >= 0 then begin
        let v = ref in_data.(off) in
        Array.iteri (fun g wd -> v := !v *. wd.(weight_offset t g)) w_datas;
        out_data.(flat_out) <- out_data.(flat_out) +. !v
      end);
  out

(* [G[o, r] = input[f(o, r)]], [0.0] where clipped, over the grid in
   row-major order. *)
let gather op valuation ~input =
  let t = compile op valuation in
  let in_data = Tensor.unsafe_data input in
  let g = Tensor.create (Array.append t.out_shape t.reduction_doms) in
  let g_data = Tensor.unsafe_data g in
  let pos = ref 0 in
  loop_nest t (fun _ ->
      let off = input_offset t in
      if off >= 0 then g_data.(!pos) <- in_data.(off);
      incr pos);
  g

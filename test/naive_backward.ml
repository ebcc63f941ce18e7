(* A test-only oracle for [Lower.Reference.backward]: the per-point
   semantics it compiles, written out directly.  For every (output,
   reduction) point — outputs outermost, then the reductions in
   row-major order — it evaluates each input coordinate, skips a clipped
   point or a zero [grad_out], and accumulates

     grad_in[f(o, r)]   += g * w_prod
     grad_w_g[idx_g]    += (g * x) * prod_{g' <> g, ascending} w_g'[idx_g']

   with [w_prod] built from 1.0 in group order.  The compiled backward
   must reproduce these gradients bit for bit. *)

module Size = Shape.Size
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

let backward (op : Graph.operator) valuation ~input ~weights ~grad_out =
  let lookup = Shape.Valuation.lookup valuation in
  let eval_size s = Size.eval s lookup in
  let ids its = Array.of_list (List.map (fun it -> it.Ast.id) its) in
  let out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape) in
  let in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape) in
  let w_shapes =
    Array.of_list
      (List.map
         (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
         op.Graph.op_weights)
  in
  let spatial_ids = ids op.Graph.op_output_iters and reduction_ids = ids op.Graph.op_reductions in
  let reduction_doms =
    Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions)
  in
  let indexers =
    Array.of_list (List.map (Lower.Reference.compile_expr lookup) op.Graph.op_input_exprs)
  in
  let w_ids = Array.of_list (List.map ids op.Graph.op_weights) in
  let n_env =
    1 + Array.fold_left max (-1) (Array.append spatial_ids reduction_ids)
  in
  let env = Array.make (max 1 n_env) 0 in
  let w_datas = Array.of_list (List.map Tensor.unsafe_data weights) in
  let n_w = Array.length w_ids in
  let in_data = Tensor.unsafe_data input in
  let go_data = Tensor.unsafe_data grad_out in
  let grad_in = Tensor.create in_shape in
  let gi_data = Tensor.unsafe_data grad_in in
  let grad_ws = Array.to_list (Array.map Tensor.create w_shapes) in
  let gw_datas = Array.of_list (List.map Tensor.unsafe_data grad_ws) in
  let w_offs = Array.make n_w 0 in
  let input_offset () =
    let off = ref 0 and ok = ref true in
    Array.iteri
      (fun i f ->
        if !ok then begin
          let v = f env in
          if v < 0 || v >= in_shape.(i) then ok := false else off := (!off * in_shape.(i)) + v
        end)
      indexers;
    if !ok then !off else -1
  in
  let weight_offset g =
    let off = ref 0 in
    Array.iteri (fun i id -> off := (!off * w_shapes.(g).(i)) + env.(id)) w_ids.(g);
    !off
  in
  let out_total = Array.fold_left ( * ) 1 out_shape in
  let red_total = Array.fold_left ( * ) 1 reduction_doms in
  for flat_out = 0 to out_total - 1 do
    let rem = ref flat_out in
    for i = Array.length out_shape - 1 downto 0 do
      env.(spatial_ids.(i)) <- !rem mod out_shape.(i);
      rem := !rem / out_shape.(i)
    done;
    for flat_red = 0 to red_total - 1 do
      let rem = ref flat_red in
      for i = Array.length reduction_ids - 1 downto 0 do
        env.(reduction_ids.(i)) <- !rem mod reduction_doms.(i);
        rem := !rem / reduction_doms.(i)
      done;
      let off = input_offset () in
      let g_out = go_data.(flat_out) in
      if off >= 0 && g_out <> 0.0 then begin
        let w_prod = ref 1.0 in
        for g = 0 to n_w - 1 do
          w_offs.(g) <- weight_offset g;
          w_prod := !w_prod *. w_datas.(g).(w_offs.(g))
        done;
        gi_data.(off) <- gi_data.(off) +. (g_out *. !w_prod);
        let x = in_data.(off) in
        for g = 0 to n_w - 1 do
          let others = ref (g_out *. x) in
          for g' = 0 to n_w - 1 do
            if g' <> g then others := !others *. w_datas.(g').(w_offs.(g'))
          done;
          gw_datas.(g).(w_offs.(g)) <- gw_datas.(g).(w_offs.(g)) +. !others
        done
      end
    done
  done;
  (grad_in, grad_ws)

(* Differential and gradient tests for the code generators. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Rng = Nd.Rng
module Reference = Lower.Reference
module Einsum_program = Lower.Einsum_program
module Staging = Lower.Staging
module Zoo = Syno.Zoo

let n = Var.primary "N"
let c_in = Var.primary "C_in"
let c_out = Var.primary "C_out"
let h = Var.primary "H"
let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kk = Var.primary "K"
let k = Var.coefficient "k"
let s = Var.coefficient "s"
let sz = Size.of_var

let valuation =
  Valuation.of_list
    [ (n, 2); (c_in, 4); (c_out, 6); (h, 12); (m, 5); (nd_, 7); (kk, 4); (k, 3); (s, 2) ]

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let matmul_op () =
  let g = Graph.init [ sz m; sz nd_ ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Match 1)) in
  ok (Graph.complete g ~desired:[ sz m; sz kk ])

let conv1d_op () =
  (* out[n, co, x] += in[n, ci, x + r - k/2] * w[co, ci, r] *)
  let g = Graph.init [ sz n; sz c_out; sz h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz c_in))) in
  let g = ok (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok (Graph.apply g (Prim.Share (3, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Share (4, Prim.Current_group))) in
  let g = ok (Graph.apply g (Prim.Unfold (2, 4))) in
  let g = ok (Graph.apply g (Prim.Match 1)) in
  ok (Graph.complete g ~desired:[ sz n; sz c_in; sz h ])

let avgpool_op () =
  let out_h = Size.mul (Size.var_pow s (-1)) (sz h) in
  let g = Graph.init [ out_h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz s))) in
  let g = ok (Graph.apply g (Prim.Split (0, 1))) in
  ok (Graph.complete g ~desired:[ sz h ])

let shift_op () =
  (* out[i] = in[(i + 1) % H]: a pure view, no weights. *)
  let g = Graph.init [ sz h ] in
  let g = ok (Graph.apply g (Prim.Shift 0)) in
  ok (Graph.complete g ~desired:[ sz h ])

(* --- Reference semantics ------------------------------------------------ *)

let test_matmul_matches_tensor_matmul () =
  let r = Reference.compile (matmul_op ()) valuation in
  let rng = Rng.create ~seed:1 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  (* weight iterators are [r_K; j], i.e. the weight is [K, Nd]. *)
  let expected = Tensor.matmul x (List.hd w) in
  Alcotest.(check bool) "matches matmul" true (Tensor.equal ~eps:1e-6 out expected)

let test_avgpool_semantics () =
  let r = Reference.compile (avgpool_op ()) valuation in
  let x = Tensor.init [| 12 |] (fun idx -> float_of_int idx.(0)) in
  let out = Reference.forward r ~input:x ~weights:[] in
  Alcotest.(check (array int)) "out shape" [| 6 |] (Reference.output_shape r);
  (* out[i] = x[2i] + x[2i+1] *)
  Alcotest.(check (float 1e-9)) "out[0]" 1.0 (Tensor.get out [| 0 |]);
  Alcotest.(check (float 1e-9)) "out[5]" 21.0 (Tensor.get out [| 5 |])

let test_shift_semantics () =
  let r = Reference.compile (shift_op ()) valuation in
  let x = Tensor.init [| 12 |] (fun idx -> float_of_int idx.(0)) in
  let out = Reference.forward r ~input:x ~weights:[] in
  Alcotest.(check (float 1e-9)) "out[0] = x[1]" 1.0 (Tensor.get out [| 0 |]);
  Alcotest.(check (float 1e-9)) "out[11] = x[0]" 0.0 (Tensor.get out [| 11 |])

let test_conv_clipping () =
  let r = Reference.compile (conv1d_op ()) valuation in
  let rng = Rng.create ~seed:2 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  Alcotest.(check (array int)) "out shape" [| 2; 6; 12 |] (Tensor.shape out);
  (* Manual conv at an interior and a boundary point. *)
  let wt = List.hd w in
  let manual nb co x_pos =
    let acc = ref 0.0 in
    for ci = 0 to 3 do
      for r = 0 to 2 do
        let xi = x_pos + r - 1 in
        if xi >= 0 && xi < 12 then
          (* weight iterators in creation order: r_Ci, r_k, then matched C_out *)
          acc := !acc +. (Tensor.get x [| nb; ci; xi |] *. Tensor.get wt [| ci; r; co |])
      done
    done;
    !acc
  in
  Alcotest.(check (float 1e-6)) "interior" (manual 1 3 5) (Tensor.get out [| 1; 3; 5 |]);
  Alcotest.(check (float 1e-6)) "left boundary" (manual 0 2 0) (Tensor.get out [| 0; 2; 0 |]);
  Alcotest.(check (float 1e-6)) "right boundary" (manual 1 5 11) (Tensor.get out [| 1; 5; 11 |])

(* --- Differential: einsum program vs reference -------------------------- *)

let differential op name =
  let r = Reference.compile op valuation in
  let ep = Einsum_program.compile op valuation in
  let rng = Rng.create ~seed:77 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let a = Reference.forward r ~input:x ~weights:w in
  let b = Einsum_program.forward ep ~input:x ~weights:w in
  Alcotest.(check bool) (name ^ ": both backends agree") true (Tensor.equal ~eps:1e-6 a b)

let test_differential_all () =
  differential (matmul_op ()) "matmul";
  differential (conv1d_op ()) "conv1d";
  differential (avgpool_op ()) "avgpool";
  differential (shift_op ()) "shift"

(* --- Gradient checks ----------------------------------------------------- *)

let loss r ~input ~weights =
  let out = Reference.forward r ~input ~weights in
  (* sum of squares / 2 so that dL/dout = out *)
  0.5 *. Tensor.sum (Tensor.mul out out)

let finite_difference ?(valuation = valuation) op name =
  let r = Reference.compile op valuation in
  let rng = Rng.create ~seed:5 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  let grad_in, grad_ws = Reference.backward r ~input:x ~weights:w ~grad_out:out in
  let eps = 1e-4 in
  let check_tensor label t grad probe_count =
    let data = Tensor.unsafe_data t in
    let g = Tensor.unsafe_data grad in
    let n = Array.length data in
    for p = 0 to probe_count - 1 do
      let i = p * max 1 (n / probe_count) mod n in
      let saved = data.(i) in
      data.(i) <- saved +. eps;
      let l1 = loss r ~input:x ~weights:w in
      data.(i) <- saved -. eps;
      let l0 = loss r ~input:x ~weights:w in
      data.(i) <- saved;
      let numeric = (l1 -. l0) /. (2.0 *. eps) in
      if Float.abs (numeric -. g.(i)) > 1e-2 *. (1.0 +. Float.abs numeric) then
        Alcotest.failf "%s %s[%d]: numeric %.6f vs analytic %.6f" name label i numeric g.(i)
    done
  in
  check_tensor "input" x grad_in 8;
  List.iter2 (fun w gw -> check_tensor "weight" w gw 8) w grad_ws

let test_gradients () =
  finite_difference (matmul_op ()) "matmul";
  finite_difference (conv1d_op ()) "conv1d"

let test_gradients_views () =
  finite_difference (avgpool_op ()) "avgpool"

(* conv2d (clipped windows), grouped_conv (an output-only [Div] in the
   input gather) and operator1 (two weight groups). *)
let test_gradients_zoo () =
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () in
  List.iter
    (fun e -> finite_difference ~valuation e.Zoo.operator e.Zoo.name)
    [ Zoo.conv2d; Zoo.grouped_conv; Zoo.operator1 ]

let dot a b =
  let a = Tensor.unsafe_data a and b = Tensor.unsafe_data b in
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. (v *. b.(i))) a;
  !s

(* The operator is linear in the input and in each weight group, so
   [<grad_in, x>] and every [<grad_w_g, w_g>] equal [<grad_out, out>]:
   a check of the gradients that neither backward implementation
   enters into.  Every zoo operator at n2/c4->8 (matmul 16x12x20) with
   a normal draw and a ReLU-style gradient; then at the kernel bench's
   shapes (with [--full] its full ones too) with its uniform draw. *)
let test_adjoint_identity () =
  let check_adjoint name r ~x ~w ~grad_out =
    let expected = dot grad_out (Reference.forward r ~input:x ~weights:w) in
    let grad_in, grad_ws = Reference.backward r ~input:x ~weights:w ~grad_out in
    let check what got =
      if Float.abs (got -. expected) > 1e-9 *. Float.abs expected then
        Alcotest.failf "%s: <%s> = %.17g, <grad_out, out> = %.17g" name what got expected
    in
    check "grad_in, x" (dot grad_in x);
    List.iteri (fun i (gw, wt) -> check (Printf.sprintf "grad_w%d, w%d" i i) (dot gw wt))
      (List.combine grad_ws w)
  in
  let each ?(tag = "") (conv_v, matmul_v) f =
    List.iter
      (fun (e : Zoo.entry) ->
        f (e.Zoo.name ^ tag)
          (Reference.compile e.Zoo.operator (if e == Zoo.matmul then matmul_v else conv_v)))
      Zoo.all
  in
  let conv_v = Zoo.Vars.conv_valuation ~n:2 ~c_in:4 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 () in
  each (conv_v, Zoo.Vars.matmul_valuation ~m:16 ~n:12 ~k:20) (fun name r ->
      let rng = Rng.create ~seed:23 in
      let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
      let w = Reference.init_weights r rng in
      let grad_out =
        Tensor.map (Float.max 0.0) (Tensor.rand_normal rng ~scale:1.0 (Reference.output_shape r))
      in
      check_adjoint name r ~x ~w ~grad_out);
  List.iter
    (fun size ->
      let tag = if size == Bench_inputs.kernel_full then " full" else " kernel bench" in
      each ~tag size (fun name r ->
          let rng = Rng.create ~seed:29 in
          let x = Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.input_shape r) in
          let w = Reference.init_weights r rng in
          let grad_out = Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.output_shape r) in
          check_adjoint name r ~x ~w ~grad_out))
    Bench_inputs.kernel_sizes

(* --- Argument checks ------------------------------------------------------- *)

(* Both Reference entry points refuse a bad argument up front, naming
   it: the compiled backward reads and writes unchecked. *)
let test_bad_arguments_rejected () =
  let r = Reference.compile Zoo.matmul.Zoo.operator (Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7) in
  let rng = Rng.create ~seed:3 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let grad_out = Tensor.rand_normal rng ~scale:1.0 (Reference.output_shape r) in
  let expect_rejected fn names run =
    match run () with
    | exception Invalid_argument msg ->
        if not (Astring.String.is_infix ~affix:names msg) then
          Alcotest.failf "%s: %S does not name the %s" fn msg names
    | _ -> Alcotest.failf "%s accepted a bad %s" fn names
  in
  let both names ~input ~weights =
    expect_rejected "Reference.forward" names (fun () ->
        ignore (Reference.forward r ~input ~weights));
    expect_rejected "Reference.backward" names (fun () ->
        ignore (Reference.backward r ~input ~weights ~grad_out))
  in
  both "input" ~input:(Tensor.create [| 7; 6 |]) ~weights:w;
  both "weight 0" ~input:x ~weights:[ Tensor.create [| 8; 9 |] ];
  both "weights given" ~input:x ~weights:[];
  both "weights given" ~input:x ~weights:(w @ w);
  expect_rejected "Reference.backward" "grad_out" (fun () ->
      ignore (Reference.backward r ~input:x ~weights:w ~grad_out:(Tensor.create [| 5; 6 |])))

(* --- Staging (materialized reduction, Fig. 4) --------------------------- *)

let fig4_op () =
  (* The Fig. 4 pattern: a reduction (here over channels) performed
     after an Unfold is evaluated once per window element; materializing
     it first removes the duplication.
     out[co, x] = sum_ci sum_rk in[ci, x + rk - k/2] * w[ci, co] *)
  let g = Graph.init [ sz c_out; sz h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz c_in))) in
  let g = ok (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Unfold (1, 3))) in
  let g = ok (Graph.apply g (Prim.Match 0)) in
  ok (Graph.complete g ~desired:[ sz c_in; sz h ])

let test_staging_fig4 () =
  let op = fig4_op () in
  let plan = Staging.optimize op valuation in
  (* Naive: 2 * (C_out*H) * (C_in*k) = 2*72*12 = 1728. *)
  Alcotest.(check int) "naive flops" 1728 plan.Staging.naive_flops;
  Alcotest.(check bool) "staging helps" true (plan.Staging.total_flops < plan.Staging.naive_flops);
  Alcotest.(check bool) "at least one stage" true (plan.Staging.stages <> []);
  (* Optimal: materialize the window sum Z[ci, x'] = sum_rk X[ci, x'+rk-k/2]
     (2*48*3 = 288 flops), then contract channels (2*72*4 = 576). *)
  Alcotest.(check int) "optimal staged flops" 864 plan.Staging.total_flops;
  Alcotest.(check bool) "speedup reported" true (Staging.speedup plan > 1.5)

let test_staging_matmul_no_gain () =
  let plan = Staging.optimize (matmul_op ()) valuation in
  Alcotest.(check int) "matmul cannot stage below naive" plan.Staging.naive_flops
    plan.Staging.total_flops

(* --- Textual codegen ------------------------------------------------------ *)

let test_codegen_text () =
  let ep = Einsum_program.compile (matmul_op ()) valuation in
  let py = Einsum_program.to_pytorch ep in
  Alcotest.(check bool) "pytorch has einsum" true
    (Astring.String.is_infix ~affix:"torch.einsum" py);
  let te = Einsum_program.to_te ep in
  Alcotest.(check bool) "te has RDom" true (Astring.String.is_infix ~affix:"RDom" te)

let () =
  Alcotest.run ~argv:Bench_inputs.argv "lower"
    [
      ( "reference",
        [
          Alcotest.test_case "matmul" `Quick test_matmul_matches_tensor_matmul;
          Alcotest.test_case "avgpool" `Quick test_avgpool_semantics;
          Alcotest.test_case "shift" `Quick test_shift_semantics;
          Alcotest.test_case "conv clipping" `Quick test_conv_clipping;
        ] );
      ("differential", [ Alcotest.test_case "all backends" `Quick test_differential_all ]);
      ( "gradients",
        [
          Alcotest.test_case "contractions" `Quick test_gradients;
          Alcotest.test_case "views" `Quick test_gradients_views;
          Alcotest.test_case "zoo" `Quick test_gradients_zoo;
          Alcotest.test_case "adjoint identity" `Quick test_adjoint_identity;
        ] );
      ( "arguments",
        [ Alcotest.test_case "bad arguments rejected" `Quick test_bad_arguments_rejected ] );
      ( "staging",
        [
          Alcotest.test_case "fig4" `Quick test_staging_fig4;
          Alcotest.test_case "matmul no gain" `Quick test_staging_matmul_no_gain;
        ] );
      ("codegen", [ Alcotest.test_case "text" `Quick test_codegen_text ]);
    ]

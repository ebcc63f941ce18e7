(* Tests for the operator zoo and the end-to-end facade. *)

module Size = Shape.Size
module Graph = Pgraph.Graph
module Flops = Pgraph.Flops
module Zoo = Syno.Zoo
module Api = Syno.Api

let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:16 ~k:3 ~g:2 ~s:2 ()

let test_zoo_builds () =
  (* all entries are constructed at module load; check basic sanity *)
  Alcotest.(check int) "catalog size" 15 (List.length Zoo.all);
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.Zoo.name ^ " has a name") true (String.length e.Zoo.name > 0);
      Alcotest.(check bool)
        (e.Zoo.name ^ " positive flops")
        true
        (Flops.naive_flops e.Zoo.operator valuation > 0 || e.Zoo.name = "pixel_shuffle"))
    Zoo.conv_like

let test_conv_flops_formula () =
  (* 2 * N*C_out*H*W * C_in*k*k *)
  Alcotest.(check int) "conv2d flops" (2 * 32 * 16 * 16 * 32 * 9)
    (Flops.naive_flops Zoo.conv2d.Zoo.operator valuation);
  Alcotest.(check int) "conv2d params" (32 * 32 * 9) (Flops.params Zoo.conv2d.Zoo.operator valuation)

let test_operator1_weight_shapes () =
  (* Listing 2: w1 = [C_out/g/s, C_in, k]; w2 = [C_out, k*k*C_out/s]. *)
  let lookup = Shape.Valuation.lookup valuation in
  match Zoo.operator1.Zoo.operator.Graph.op_weights with
  | [ w1; w2 ] ->
      let elems grp =
        List.fold_left (fun acc it -> acc * Size.eval it.Coord.Ast.dom lookup) 1 grp
      in
      Alcotest.(check int) "w1 elems" (32 / 2 / 2 * 32 * 3) (elems w1);
      Alcotest.(check int) "w2 elems" (32 * (3 * 3 * 32 / 2)) (elems w2)
  | _ -> Alcotest.fail "operator1 must have two weight groups"

let test_operator2_parameter_saving () =
  (* Paper: fewer than 1/4 of the parameters of a standard conv. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:64 ~c_out:64 ~hw:16 ~k:3 ~g:2 ~s:4 () in
  let conv = Flops.params Zoo.conv2d.Zoo.operator v in
  let op2 = Flops.params Zoo.operator2.Zoo.operator v in
  Alcotest.(check bool)
    (Printf.sprintf "op2 params %d < conv/4 = %d" op2 (conv / 4))
    true (op2 < conv / 4)

let test_operator1_staged_flops () =
  (* Staged execution must undercut the standard convolution. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:64 ~c_out:64 ~hw:28 ~k:3 ~g:2 ~s:4 () in
  let conv = (Lower.Staging.optimize Zoo.conv2d.Zoo.operator v).Lower.Staging.total_flops in
  let op1 = (Lower.Staging.optimize Zoo.operator1.Zoo.operator v).Lower.Staging.total_flops in
  Alcotest.(check bool)
    (Printf.sprintf "op1 staged %d < conv %d" op1 conv)
    true
    (float_of_int op1 < 0.6 *. float_of_int conv)

let test_stacked_conv_wider_receptive () =
  (* stacked conv unfolds W twice: its W receptive field is 2k-1. *)
  let lookup = Shape.Valuation.lookup valuation in
  let w_span op =
    let e = List.nth op.Graph.op_input_exprs 3 in
    let lo, hi = Coord.Ast.bounds ~lookup e in
    (* the output iterator contributes H-1 of the range *)
    hi - lo + 1 - (16 - 1)
  in
  Alcotest.(check int) "op1 W span 3" 3 (w_span Zoo.operator1.Zoo.operator);
  Alcotest.(check int) "stacked W span 5" 5 (w_span Zoo.stacked_conv.Zoo.operator)

let test_semantics_depthwise () =
  (* depthwise never mixes channels: grad-free numeric check. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () in
  let r = Lower.Reference.compile Zoo.depthwise_conv.Zoo.operator v in
  let rng = Nd.Rng.create ~seed:31 in
  let weights = Lower.Reference.init_weights r rng in
  let x0 = Nd.Tensor.create [| 1; 4; 6; 6 |] in
  let x1 = Nd.Tensor.copy x0 in
  (* perturb channel 2 only *)
  Nd.Tensor.set x1 [| 0; 2; 3; 3 |] 1.0;
  let y0 = Lower.Reference.forward r ~input:x0 ~weights in
  let y1 = Lower.Reference.forward r ~input:x1 ~weights in
  let diff = Nd.Tensor.sub y1 y0 in
  Nd.Tensor.iteri
    (fun idx d ->
      if idx.(1) <> 2 && Float.abs d > 1e-12 then
        Alcotest.failf "channel %d affected by channel 2" idx.(1))
    diff

let test_grouped_semantics () =
  (* grouped conv: output channel in group 0 ignores input channels of
     group 1. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () in
  let r = Lower.Reference.compile Zoo.grouped_conv.Zoo.operator v in
  let rng = Nd.Rng.create ~seed:32 in
  let weights = Lower.Reference.init_weights r rng in
  let x0 = Nd.Tensor.create [| 1; 4; 6; 6 |] in
  let x1 = Nd.Tensor.copy x0 in
  (* channel 3 is in group 1 (channels 2,3) *)
  Nd.Tensor.set x1 [| 0; 3; 3; 3 |] 1.0;
  let y0 = Lower.Reference.forward r ~input:x0 ~weights in
  let y1 = Lower.Reference.forward r ~input:x1 ~weights in
  let diff = Nd.Tensor.sub y1 y0 in
  (* output channels 0,1 (group 0) unaffected *)
  Nd.Tensor.iteri
    (fun idx d ->
      if idx.(1) < 2 && Float.abs d > 1e-12 then
        Alcotest.failf "group 0 output affected by group 1 input")
    diff;
  Alcotest.(check bool) "group 1 output affected" true
    (Nd.Tensor.max_value (Nd.Tensor.map Float.abs diff) > 1e-9)

(* --- Facade -------------------------------------------------------------- *)

let test_substitution_fallback () =
  let dw_spec =
    {
      Backbones.Convspec.layer = "dw";
      in_channels = 32;
      out_channels = 32;
      height = 8;
      width = 8;
      kernel = 3;
      groups = 32;
      count = 1;
    }
  in
  let sub = Api.substituted_layer_op Zoo.operator1 dw_spec in
  Alcotest.(check bool) "depthwise layer keeps baseline" true
    (sub.Api.op == Zoo.depthwise_conv.Zoo.operator)

let test_speedup_directions () =
  let model = Backbones.Models.resnet18 in
  let tvm = Perf.Compiler_model.tvm in
  let cpu = Perf.Platform.mobile_cpu in
  let s2 = Api.speedup Zoo.operator2 model tvm cpu in
  Alcotest.(check bool) (Printf.sprintf "op2 speeds up resnet18 on cpu (%.2fx)" s2) true (s2 > 1.5);
  let s1 = Api.speedup Zoo.operator1 model tvm cpu in
  Alcotest.(check bool) (Printf.sprintf "op1 speeds up resnet18 on cpu (%.2fx)" s1) true (s1 > 1.2);
  (* model flops drop under substitution *)
  Alcotest.(check bool) "flops drop" true
    (Api.model_flops ~substitute:Zoo.operator2 model < Api.model_flops model)

let test_search_end_to_end () =
  let rng = Nd.Rng.create ~seed:41 in
  let candidates =
    Api.search_conv_operators ~iterations:400 ~max_prims:7 ~rng
      ~valuations:Api.default_search_valuations ()
  in
  Alcotest.(check bool) "finds candidates" true (candidates <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "reward in range" true (c.Api.reward >= 0.0 && c.Api.reward <= 1.0);
      Alcotest.(check bool) "positive flops" true (c.Api.flops > 0))
    candidates

(* A fixed search's top-k, pinned bit for bit: a change to enumeration,
   canonicalization or the shape distance that alters what the search
   finds fails here. *)
let search_digest seed =
  let run =
    Api.search_conv_operators_run ~iterations:200 ~max_prims:7 ~domains:1
      ~rng:(Nd.Rng.create ~seed) ~valuations:Api.default_search_valuations ()
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (c : Api.candidate) ->
               Printf.sprintf "%s %Lx %b" c.Api.signature (Int64.bits_of_float c.Api.reward)
                 c.Api.quarantined)
             run.Api.candidates)))

let test_search_golden () =
  Alcotest.(check string) "seed 7" "4f40a598ed7fa73a1ec427260eea5872" (search_digest 7);
  Alcotest.(check string) "seed 2024" "212505321e1dc89ca64ec14044119979" (search_digest 2024)

let () =
  Alcotest.run "syno"
    [
      ( "zoo",
        [
          Alcotest.test_case "builds" `Quick test_zoo_builds;
          Alcotest.test_case "conv flops" `Quick test_conv_flops_formula;
          Alcotest.test_case "operator1 weights" `Quick test_operator1_weight_shapes;
          Alcotest.test_case "operator2 params" `Quick test_operator2_parameter_saving;
          Alcotest.test_case "operator1 staged" `Quick test_operator1_staged_flops;
          Alcotest.test_case "receptive fields" `Quick test_stacked_conv_wider_receptive;
          Alcotest.test_case "depthwise semantics" `Quick test_semantics_depthwise;
          Alcotest.test_case "grouped semantics" `Quick test_grouped_semantics;
        ] );
      ( "facade",
        [
          Alcotest.test_case "fallback" `Quick test_substitution_fallback;
          Alcotest.test_case "speedups" `Quick test_speedup_directions;
          Alcotest.test_case "search" `Slow test_search_end_to_end;
          Alcotest.test_case "search top-k digest" `Quick test_search_golden;
        ] );
    ]

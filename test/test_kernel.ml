(* Proof-guided specialization: certificates, translation validation,
   and bit-identity of the checkless executor. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Rng = Nd.Rng
module Zoo = Syno.Zoo
module Reference = Lower.Reference
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize
module Regions = Analysis.Regions
module Certify = Analysis.Certify
module Verify = Analysis.Verify
module Cancel = Robust.Cancel
module Ast = Coord.Ast

let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()

let zoo_cases =
  [
    Zoo.conv2d;
    Zoo.conv1x1;
    Zoo.grouped_conv;
    Zoo.depthwise_conv;
    Zoo.avgpool;
    Zoo.pixel_shuffle;
    Zoo.operator1;
    Zoo.operator2;
    Zoo.stacked_conv;
    Zoo.shift_conv;
    Zoo.nas_pte_grouped;
    Zoo.nas_pte_bottleneck;
    Zoo.nas_pte_range_bottleneck;
    Zoo.nas_pte_depthwise_separable;
  ]

let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t)
let ok_graph = function Ok v -> v | Error e -> Alcotest.failf "graph error: %s" e

let certified name op v =
  let st = Staged.compile op v in
  let cert = Regions.of_staged st in
  (match Certify.validate st cert.Regions.rc_plan with
  | Ok _ -> ()
  | Error (Robust.Guard.Static_violation msg) ->
      Alcotest.failf "%s: sound certificate rejected: %s" name msg
  | Error _ -> Alcotest.failf "%s: unexpected guard kind" name);
  (st, cert)

let forward_pair ?cancel name op v =
  let st, cert = certified name op v in
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let r = Staged.reference st in
  let rng = Rng.create ~seed:13 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let a = Staged.forward st ~input:x ~weights:w in
  let b = Specialize.forward ?cancel sp ~input:x ~weights:w in
  (a, b)

let check_identical name op v =
  let a, b = forward_pair name op v in
  Alcotest.(check (array int64)) (name ^ ": bit-identical") (bits a) (bits b)

(* --- Bit-identity over the zoo -------------------------------------------- *)

(* conv2d with each reduction iterator of the input gather hidden as
   [(2 * r) / 2]: the same values, so the certificate keeps its interior,
   but the [Div] has no constant stride, so the certified interior
   pieces of the final nest run the guarded loop with nothing checked. *)
let guarded_interior_conv =
  let two = Size.of_int 2 in
  let rec hide = function
    | Ast.Iter it when it.Ast.role = Ast.Reduction -> Ast.div (Ast.mul two (Ast.iter it)) two
    | Ast.Add (a, b) -> Ast.Add (hide a, hide b)
    | Ast.Sub (a, b) -> Ast.Sub (hide a, hide b)
    | Ast.Mul (n, e) -> Ast.Mul (n, hide e)
    | Ast.Div (e, n) -> Ast.Div (hide e, n)
    | Ast.Mod (e, n) -> Ast.Mod (hide e, n)
    | (Ast.Iter _ | Ast.Const _ | Ast.Size_const _) as e -> e
  in
  let conv = Zoo.conv2d.Zoo.operator in
  { conv with Graph.op_input_exprs = List.map hide conv.Graph.op_input_exprs }

let test_zoo_bit_identity () =
  List.iter (fun e -> check_identical e.Zoo.name e.Zoo.operator valuation) zoo_cases;
  check_identical "conv2d/guarded-interior" guarded_interior_conv valuation

let test_matmul_bit_identity () =
  let v = Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7 in
  check_identical "matmul" Zoo.matmul.Zoo.operator v

let test_pool_sizes_bit_identical () =
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_domains (Par.Pool.num_domains ()))
    (fun () ->
      List.iter
        (fun e ->
          let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
          let sp = Specialize.compile st cert.Regions.rc_plan in
          let r = Staged.reference st in
          let rng = Rng.create ~seed:31 in
          let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
          let w = Reference.init_weights r rng in
          let reference = Staged.forward st ~input:x ~weights:w in
          List.iter
            (fun domains ->
              Par.Pool.set_default_domains domains;
              let b = Specialize.forward sp ~input:x ~weights:w in
              Alcotest.(check (array int64))
                (Printf.sprintf "%s: %d domains" e.Zoo.name domains)
                (bits reference) (bits b))
            [ 1; 2; 4 ])
        [ Zoo.conv2d; Zoo.operator1 ])

(* --- The path the plan runs ------------------------------------------------ *)

(* Guarded execution is bit-identical by design, so only the volume the
   plan sends down the checkless loops shows whether the certified
   interior actually runs there. *)
let test_checkless_volume () =
  let conv_v = Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 () in
  let matmul_v = Zoo.Vars.matmul_valuation ~m:64 ~n:64 ~k:64 in
  List.iter
    (fun (e, v) ->
      let st = Staged.compile e.Zoo.operator v in
      let cert = Regions.of_staged st in
      match Certify.validate st cert.Regions.rc_plan with
      | Error _ -> Alcotest.failf "%s: sound certificate rejected" e.Zoo.name
      | Ok stats ->
          let sp = Specialize.compile st cert.Regions.rc_plan in
          Alcotest.(check bool) (e.Zoo.name ^ ": has an interior") true
            (stats.Certify.ct_interior_cells > 0);
          Alcotest.(check int)
            (e.Zoo.name ^ ": checkless volume = certified interior")
            stats.Certify.ct_interior_cells (Specialize.checkless_volume sp))
    (List.map (fun e -> (e, conv_v)) Zoo.conv_like @ [ (Zoo.matmul, matmul_v) ]);
  let st, cert = certified "conv2d/guarded-interior" guarded_interior_conv valuation in
  let sp = Specialize.compile st cert.Regions.rc_plan in
  Alcotest.(check bool)
    "conv2d/guarded-interior: part of the certified interior runs guarded" true
    (Specialize.checkless_volume sp < Specialize.interior_volume cert.Regions.rc_plan)

(* --- Cancellation --------------------------------------------------------- *)

let test_mid_loop_cancellation () =
  (* A fake clock that advances one tick per poll: the deadline token
     trips mid-execution, deterministically, after a few safe points. *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks
  in
  let cancel = Cancel.of_deadline ~clock 5.0 in
  match forward_pair ~cancel "conv2d" Zoo.conv2d.Zoo.operator valuation with
  | _ -> Alcotest.fail "expected mid-loop cancellation"
  | exception Cancel.Cancelled (Cancel.Deadline_exceeded _) ->
      Alcotest.(check bool) "polled more than once" true (!ticks >= 5)

let test_precancelled () =
  let cancel = Cancel.create () in
  Cancel.cancel ~reason:"test" cancel;
  match forward_pair ~cancel "conv2d" Zoo.conv2d.Zoo.operator valuation with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Cancel.Cancelled (Cancel.Cancelled_by "test") -> ()

(* --- Partition edge cases ------------------------------------------------- *)

let test_empty_interior () =
  (* hw = 2 with a 3-wide window: every spatial position may clip, so
     the padded axes have no interior run, yet the partition still
     covers everything and executes identically. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:2 ~k:3 ~g:2 ~s:2 () in
  let st, cert = certified "conv2d/hw=2" Zoo.conv2d.Zoo.operator v in
  ignore st;
  Alcotest.(check bool)
    "interior fraction below 1" true
    (cert.Regions.rc_interior_fraction < 1.0);
  check_identical "conv2d/hw=2" Zoo.conv2d.Zoo.operator v

let test_size_one_axes () =
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:1 ~c_out:1 ~hw:1 ~k:1 ~g:1 ~s:1 () in
  List.iter
    (fun e -> check_identical (e.Zoo.name ^ "/ones") e.Zoo.operator v)
    [ Zoo.conv2d; Zoo.conv1x1; Zoo.depthwise_conv ]

let test_scalar_output () =
  (* A full contraction to a 0-d output: dot product of the input with
     one weight vector. *)
  let h = Zoo.Vars.h in
  let sz = Size.of_var in
  let g = Graph.init [] in
  let g = ok_graph (Graph.apply g (Prim.Reduce (sz h))) in
  let g = ok_graph (Graph.apply g (Prim.Share (0, Prim.New_group))) in
  let op = ok_graph (Graph.complete g ~desired:[ sz h ]) in
  let v = Valuation.of_list [ (h, 9) ] in
  check_identical "dot" op v

let test_all_padded_program () =
  (* conv2d's Unfold windows clip on both spatial axes: the verdict is
     Padded, the certificate records border strips, and the interior
     still dominates. *)
  let _, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Padded _ -> ()
  | verdict ->
      Alcotest.failf "expected Padded, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check bool) "has border strips" true (Regions.strips cert > 0);
  Alcotest.(check bool)
    "interior still dominates" true
    (cert.Regions.rc_interior_fraction > 0.5)

let test_proved_program_single_interior () =
  (* conv1x1 has no padding anywhere: every nest should be one interior
     piece and the certificate verdict Proved. *)
  let _, cert = certified "conv1x1" Zoo.conv1x1.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Proved -> ()
  | verdict ->
      Alcotest.failf "expected Proved, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check int) "no border strips" 0 (Regions.strips cert);
  Alcotest.(check (float 1e-9)) "interior fraction 1" 1.0 cert.Regions.rc_interior_fraction

(* --- Certificate soundness ------------------------------------------------ *)

let test_zero_tensor_allocations () =
  let st = Staged.compile Zoo.conv2d.Zoo.operator valuation in
  let before = Tensor.allocations () in
  let cert = Regions.of_staged st in
  let validated = Certify.validate st cert.Regions.rc_plan in
  Alcotest.(check int)
    "certificate construction and validation allocate no tensor" 0
    (Tensor.allocations () - before);
  match validated with
  | Ok stats ->
      Alcotest.(check bool) "has cells" true (stats.Certify.ct_cells > 0);
      Alcotest.(check bool)
        "interior cells within total" true
        (stats.Certify.ct_interior_cells <= stats.Certify.ct_cells)
  | Error _ -> Alcotest.fail "sound certificate rejected"

let invisible_faults = [ Specialize.Overlap_strip; Specialize.Duplicate_strip; Specialize.Spurious_clip ]

let test_corrupt_plans_rejected () =
  List.iter
    (fun e ->
      let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
      List.iter
        (fun fault ->
          match Specialize.corrupt fault st cert.Regions.rc_plan with
          | None -> ()
          | Some corrupted -> (
              match Certify.validate st corrupted with
              | Error (Robust.Guard.Static_violation _) -> ()
              | Error _ -> Alcotest.fail "unexpected guard kind"
              | Ok _ ->
                  Alcotest.failf "%s: %s not rejected" e.Zoo.name
                    (Specialize.fault_to_string fault)))
        (Specialize.Cover_gap :: invisible_faults))
    zoo_cases

let test_corrupt_plans_execute_invisibly () =
  (* The whole point of translation validation: these faults produce a
     plan that runs to completion with bit-identical outputs — without
     Certify, nothing notices. *)
  List.iter
    (fun e ->
      let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
      let r = Staged.reference st in
      let rng = Rng.create ~seed:7 in
      let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
      let w = Reference.init_weights r rng in
      let reference = Staged.forward st ~input:x ~weights:w in
      List.iter
        (fun fault ->
          match Specialize.corrupt fault st cert.Regions.rc_plan with
          | None -> ()
          | Some corrupted ->
              let sp = Specialize.compile st corrupted in
              let b = Specialize.forward sp ~input:x ~weights:w in
              Alcotest.(check (array int64))
                (Printf.sprintf "%s: %s invisible" e.Zoo.name
                   (Specialize.fault_to_string fault))
                (bits reference) (bits b))
        invisible_faults)
    [ Zoo.conv2d; Zoo.operator1; Zoo.shift_conv ]

let test_faults_available () =
  (* On a padded program every fault class must actually apply —
     otherwise the rejection test above would pass vacuously. *)
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  List.iter
    (fun fault ->
      match Specialize.corrupt fault st cert.Regions.rc_plan with
      | Some _ -> ()
      | None ->
          Alcotest.failf "fault %s not applicable to conv2d"
            (Specialize.fault_to_string fault))
    (Specialize.Cover_gap :: invisible_faults)

let test_plan_shape_mismatch_rejected () =
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  let plan = cert.Regions.rc_plan in
  let last = Array.length plan - 1 in
  let final_accesses = List.length (List.nth (Staged.access_plan st) last) in
  let with_clip idx =
    Array.mapi
      (fun i pieces ->
        match pieces with
        | p :: rest when i = last ->
            { p with Specialize.pc_clips = idx :: p.Specialize.pc_clips } :: rest
        | pieces -> pieces)
      plan
  in
  List.iter
    (fun (what, bad) ->
      (match Certify.validate st bad with
      | Error (Robust.Guard.Static_violation _) -> ()
      | _ -> Alcotest.failf "%s accepted" what);
      match Specialize.compile st bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Specialize.compile accepted %s" what)
    [
      ("truncated plan", Array.sub plan 0 last);
      ("clip index past the nest's accesses", with_clip final_accesses);
      ("negative clip index", with_clip (-1));
    ]

(* --- Argument checks ------------------------------------------------------ *)

(* A tensor of the wrong shape would be indexed unchecked by the
   certified interior, so both forwards must refuse it up front, naming
   the offending weight. *)
let test_bad_weights_rejected () =
  let v = Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7 in
  let st, cert = certified "matmul" Zoo.matmul.Zoo.operator v in
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let r = Staged.reference st in
  let rng = Rng.create ~seed:3 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let grown =
    List.map (fun t -> Tensor.create (Array.map (fun d -> d + 1) (Tensor.shape t))) w
  in
  List.iter
    (fun (what, weights) ->
      List.iter
        (fun (fwd, run) ->
          match run weights with
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s names the weight (%s)" fwd what msg)
                true
                (Astring.String.is_infix ~affix:"weight" msg)
          | _ -> Alcotest.failf "%s accepted %s" fwd what)
        [
          ("Staged_exec.forward", fun weights -> Staged.forward st ~input:x ~weights);
          ("Specialize.forward", fun weights -> Specialize.forward sp ~input:x ~weights);
        ])
    [
      ("a weight with every dim one too long", grown);
      ("a 2-element weight", [ Tensor.create [| 2 |] ]);
      ("no weights", []);
      ("an extra weight", w @ w);
    ]

(* --- Random programs ------------------------------------------------------ *)

let random_specialized_agreement =
  QCheck.Test.make ~name:"random synthesized operators specialize bit-identically"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let open Zoo.Vars in
      let sz = Size.of_var in
      let valuations = [ Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () ] in
      let base =
        Search.Enumerate.default_config
          ~output_shape:[ sz n; sz c_out; sz h; sz w ]
          ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
          ~valuations ()
      in
      let cfg =
        {
          base with
          Search.Enumerate.max_prims = 7;
          coefficient_candidates = [ sz k; sz s ];
          reduce_candidates = [ sz c_in; sz k ];
          frozen_sizes = [ sz n ];
        }
      in
      let rng = Rng.create ~seed in
      match Search.Enumerate.random_completion cfg rng ~use_distance:true with
      | None -> true
      | Some op ->
          let v = List.hd valuations in
          let st = Staged.compile op v in
          let cert = Regions.of_staged st in
          (match Certify.validate st cert.Regions.rc_plan with
          | Error _ -> false
          | Ok stats ->
              let sp = Specialize.compile st cert.Regions.rc_plan in
              let r = Staged.reference st in
              let data_rng = Rng.create ~seed:(seed + 1) in
              let x = Tensor.rand_normal data_rng ~scale:1.0 (Reference.input_shape r) in
              let w = Reference.init_weights r data_rng in
              let a = Staged.forward st ~input:x ~weights:w in
              let b = Specialize.forward sp ~input:x ~weights:w in
              bits a = bits b
              && Specialize.checkless_volume sp <= stats.Certify.ct_interior_cells))

let () =
  Alcotest.run "kernel"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "zoo operators" `Quick test_zoo_bit_identity;
          Alcotest.test_case "matmul" `Quick test_matmul_bit_identity;
          Alcotest.test_case "pool sizes" `Quick test_pool_sizes_bit_identical;
          QCheck_alcotest.to_alcotest random_specialized_agreement;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "mid-loop deadline" `Quick test_mid_loop_cancellation;
          Alcotest.test_case "pre-cancelled" `Quick test_precancelled;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "empty interior" `Quick test_empty_interior;
          Alcotest.test_case "size-1 axes" `Quick test_size_one_axes;
          Alcotest.test_case "scalar output" `Quick test_scalar_output;
          Alcotest.test_case "all-padded program" `Quick test_all_padded_program;
          Alcotest.test_case "proved program" `Quick test_proved_program_single_interior;
          Alcotest.test_case "checkless volume = certified interior" `Quick
            test_checkless_volume;
        ] );
      ( "certification",
        [
          Alcotest.test_case "zero allocations" `Quick test_zero_tensor_allocations;
          Alcotest.test_case "corrupt plans rejected" `Quick test_corrupt_plans_rejected;
          Alcotest.test_case "corrupt plans invisible" `Quick
            test_corrupt_plans_execute_invisibly;
          Alcotest.test_case "faults applicable" `Quick test_faults_available;
          Alcotest.test_case "plan shape mismatch" `Quick test_plan_shape_mismatch_rejected;
        ] );
      ("arguments", [ Alcotest.test_case "bad weights rejected" `Quick test_bad_weights_rejected ]);
    ]

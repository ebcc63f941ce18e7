(* Proof-guided specialization: clip-set certificates, translation
   validation, and bit-identity of the specialized executor. *)

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

(* The kernel bench's smoke shapes: c8/hw10, matmul 6x5x7. *)
let valuation, matmul_valuation = Bench_inputs.kernel_small

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

let clips name op v =
  let st, cert = certified name op v in
  Specialize.clips_exactly (Specialize.compile st cert.Regions.rc_plan)

(* An input for [r] drawn from [seed], normal or with [uniform] on
   [-1, 1] as the kernel bench draws it, then the weights; and the
   generator, for what is drawn next. *)
let draw ?(uniform = false) ~seed r =
  let rng = Rng.create ~seed in
  let shape = Reference.input_shape r in
  let x =
    if uniform then Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 shape
    else Tensor.rand_normal rng ~scale:1.0 shape
  in
  (x, Reference.init_weights r rng, rng)

(* The staged and the specialized forward of one draw. *)
let forward_pair ?cancel ?uniform ?(seed = 13) name op v =
  let st, cert = certified name op v in
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let x, w, _ = draw ?uniform ~seed (Staged.reference st) in
  let a = Staged.forward st ~input:x ~weights:w in
  let b = Specialize.forward ?cancel sp ~input:x ~weights:w in
  (a, b)

let check_identical ?uniform ?seed name op v =
  let a, b = forward_pair ?uniform ?seed name op v in
  Alcotest.(check (array int64)) (name ^ ": bit-identical") (bits a) (bits b)

(* Every catalog operator, matmul at its own shapes, named: at the
   kernel bench's smoke shapes, and with [--full] also at its full ones
   (c32/hw28, matmul 64^3), named "<operator> full". *)
let catalog =
  List.concat_map
    (fun ((conv_v, matmul_v) as size) ->
      let tag = if size == Bench_inputs.kernel_full then " full" else "" in
      List.map
        (fun e ->
          (e.Zoo.name ^ tag, e.Zoo.operator, if e == Zoo.matmul then matmul_v else conv_v))
        (zoo_cases @ [ Zoo.matmul ]))
    Bench_inputs.kernel_sizes

(* --- Bit-identity over the zoo -------------------------------------------- *)

(* conv2d with each reduction iterator [r] of the input gather replaced
   by [f r]. *)
let conv2d_with_reductions f =
  let rec rewrite = function
    | Ast.Iter it when it.Ast.role = Ast.Reduction -> f (Ast.iter it)
    | Ast.Add (a, b) -> Ast.Add (rewrite a, rewrite b)
    | Ast.Sub (a, b) -> Ast.Sub (rewrite a, rewrite b)
    | Ast.Mul (n, e) -> Ast.Mul (n, rewrite e)
    | Ast.Div (e, n) -> Ast.Div (rewrite e, n)
    | Ast.Mod (e, n) -> Ast.Mod (rewrite e, n)
    | (Ast.Iter _ | Ast.Const _ | Ast.Size_const _) as e -> e
  in
  let conv = Zoo.conv2d.Zoo.operator in
  { conv with Graph.op_input_exprs = List.map rewrite conv.Graph.op_input_exprs }

(* conv2d with each reduction iterator of the input gather hidden as
   [(2 * r) / 2]: the same values, but the [Div] has no constant stride,
   so those dims keep their closures and every output of the final nest
   runs the guarded loop. *)
let guarded_interior_conv =
  let two = Size.of_int 2 in
  conv2d_with_reductions (fun r -> Ast.div (Ast.mul two r) two)

(* conv2d with its last input coordinate moved 4 to the right: every
   output near the right edge reads a window that lies wholly outside
   the input. *)
let offset_window_conv =
  let conv = Zoo.conv2d.Zoo.operator in
  let exprs = conv.Graph.op_input_exprs in
  let last = List.length exprs - 1 in
  {
    conv with
    Graph.op_input_exprs =
      List.mapi (fun i e -> if i = last then Ast.Add (e, Ast.Const 4) else e) exprs;
  }

(* conv2d with each reduction iterator of the input gather folded as
   [r mod 2]: a term no stride describes, so those dims keep their
   closures and every output runs the guarded nest. *)
let folded_window_conv = conv2d_with_reductions (fun r -> Ast.Mod (r, Size.of_int 2))

(* Windows that step by 2 and windows that run backwards: the per-axis
   clip divides by the stride and flips for a negative one. *)
let strided_window_conv = conv2d_with_reductions (fun r -> Ast.mul (Size.of_int 2) r)
let reversed_window_conv = conv2d_with_reductions (fun r -> Ast.Sub (Ast.Const 0, r))

let reversed_strided_window_conv =
  conv2d_with_reductions (fun r -> Ast.Sub (Ast.Const 1, Ast.mul (Size.of_int 3) r))

(* conv2d whose row coordinate moves with both window axes,
   [i_h + r_h + r_w - 2 * (k / 2)]: a dim no single axis clips, so a
   border output is tested over the whole window. *)
let diagonal_window_conv =
  let conv = Zoo.conv2d.Zoo.operator in
  match (conv.Graph.op_input_exprs, conv.Graph.op_reductions) with
  | [ n; c; h; w ], [ _; _; r_w ] ->
      let half = Ast.Div (Ast.Size_const (Size.of_var Zoo.Vars.k), Size.of_int 2) in
      {
        conv with
        Graph.op_input_exprs = [ n; c; Ast.Sub (Ast.Add (h, Ast.iter r_w), half); w ];
      }
  | _ -> Alcotest.fail "conv2d: unexpected gather"

(* conv2d with two more weight groups, one over the window row and one
   over the output channel: four factors per point, the general inner
   run. *)
let three_group_conv =
  let conv = Zoo.conv2d.Zoo.operator in
  match (conv.Graph.op_output_iters, conv.Graph.op_reductions) with
  | [ _; co; _; _ ], [ _; r_h; _ ] ->
      { conv with Graph.op_weights = conv.Graph.op_weights @ [ [ r_h ]; [ co ] ] }
  | _ -> Alcotest.fail "conv2d: unexpected iterators"

(* The shapes [Api.proxy_layer] trains at: n16, hw10, c4->8 and c8->8. *)
let proxy_valuations =
  List.map
    (fun c_in ->
      ( Printf.sprintf "c%d->8" c_in,
        Zoo.Vars.conv_valuation ~n:16 ~c_in ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 () ))
    [ 4; 8 ]

let test_zoo_bit_identity () =
  List.iter (fun e -> check_identical e.Zoo.name e.Zoo.operator valuation) zoo_cases;
  List.iter
    (fun (shape, v) ->
      List.iter
        (fun e -> check_identical (Printf.sprintf "%s %s" e.Zoo.name shape) e.Zoo.operator v)
        zoo_cases)
    proxy_valuations;
  check_identical "conv2d/guarded-interior" guarded_interior_conv valuation;
  (* The kernel bench's draw. *)
  List.iter
    (fun (name, op, v) -> check_identical ~uniform:true ~seed:17 (name ^ " uniform") op v)
    catalog

let test_matmul_bit_identity () =
  check_identical "matmul" Zoo.matmul.Zoo.operator matmul_valuation

(* At valuation's shapes every nest's work is above [Staged_exec.run_box]'s
   parallel threshold, so at 2 and 4 domains the outputs are split into
   ranges across the pool. *)
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

(* Guarded execution is bit-identical by design, so only whether the
   nests clip exactly shows whether the certified interior actually runs
   checkless.  With clip sets the checkless volume is every output of a
   nest that clips exactly, border included, so "checkless volume =
   certified interior" holds as: the certificate has an interior, and
   none of it runs guarded.  The shapes are the kernel bench's. *)
let test_checkless_volume () =
  let conv_v, matmul_v = Bench_inputs.kernel_full in
  List.iter
    (fun (e, v) ->
      let _, cert = certified e.Zoo.name e.Zoo.operator v in
      Alcotest.(check bool) (e.Zoo.name ^ ": has an interior") true
        (cert.Regions.rc_interior_fraction > 0.0);
      Alcotest.(check bool)
        (e.Zoo.name ^ ": every nest clips exactly")
        true
        (clips e.Zoo.name e.Zoo.operator v))
    (List.map (fun e -> (e, conv_v)) Zoo.conv_like @ [ (Zoo.matmul, matmul_v) ]);
  let _, cert = certified "conv2d/guarded-interior" guarded_interior_conv valuation in
  Alcotest.(check bool) "conv2d/guarded-interior: has an interior" true
    (cert.Regions.rc_interior_fraction > 0.0);
  Alcotest.(check bool)
    "conv2d/guarded-interior: part of the certified interior runs guarded" false
    (clips "conv2d/guarded-interior" guarded_interior_conv valuation)

(* --- Cancellation --------------------------------------------------------- *)

(* One large nest, conv1x1's final contraction over 32768 outputs, at
   one domain: the sequential run polls every 4096 outputs, and a fake
   clock that advances one tick per poll trips the deadline at the
   fifth poll, before the nest is done. *)
let test_mid_loop_cancellation () =
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:8 ~hw:64 ~k:1 ~g:1 ~s:1 () in
  let st, cert = certified "conv1x1" Zoo.conv1x1.Zoo.operator v in
  Alcotest.(check int) "a single nest" 1 (Array.length cert.Regions.rc_plan);
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let r = Staged.reference st in
  let rng = Rng.create ~seed:13 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks
  in
  let cancel = Cancel.of_deadline ~clock 5.0 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_domains (Par.Pool.num_domains ()))
    (fun () ->
      Par.Pool.set_default_domains 1;
      match Specialize.forward ~cancel sp ~input:x ~weights:w with
      | _ -> Alcotest.fail "expected mid-nest cancellation"
      | exception Cancel.Cancelled (Cancel.Deadline_exceeded _) ->
          Alcotest.(check bool) "stopped mid-nest" true (!ticks >= 5 && !ticks < 32768 / 4096))

let test_precancelled () =
  let cancel = Cancel.create () in
  Cancel.cancel ~reason:"test" cancel;
  match forward_pair ~cancel "conv2d" Zoo.conv2d.Zoo.operator valuation with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Cancel.Cancelled (Cancel.Cancelled_by "test") -> ()

(* --- Certificate edge cases ------------------------------------------------ *)

let test_empty_interior () =
  (* hw = 2 with a 3-wide window: every spatial position may clip, so
     the padded accesses are listed, and the nest still executes
     identically. *)
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
     Padded, the certificate lists those accesses, and the proved ones
     still dominate. *)
  let _, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Padded _ -> ()
  | verdict ->
      Alcotest.failf "expected Padded, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check bool) "lists may-clip accesses" true (Regions.clips cert > 0);
  Alcotest.(check bool)
    "interior still dominates" true
    (cert.Regions.rc_interior_fraction > 0.5)

let test_proved_program_single_interior () =
  (* conv1x1 has no padding anywhere: no nest lists an access and the
     certificate verdict is Proved. *)
  let _, cert = certified "conv1x1" Zoo.conv1x1.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Proved -> ()
  | verdict ->
      Alcotest.failf "expected Proved, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check int) "no clips" 0 (Regions.clips cert);
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
  (match validated with
  | Ok stats ->
      Alcotest.(check bool) "has accesses" true (stats.Certify.ct_accesses > 0);
      Alcotest.(check bool)
        "clips within accesses" true
        (stats.Certify.ct_clips <= stats.Certify.ct_accesses)
  | Error _ -> Alcotest.fail "sound certificate rejected");
  let plans = List.map (fun (_, op, v) -> Staged.compile op v) catalog in
  let before = Tensor.allocations () in
  List.iter (fun st -> ignore (Certify.validate st (Regions.of_staged st).Regions.rc_plan)) plans;
  Alcotest.(check int) "over the catalog, too" 0 (Tensor.allocations () - before)

let invisible_faults = [ Specialize.Spurious_clip; Specialize.Duplicate_clip ]
let faults = Specialize.Dropped_clip :: invisible_faults

let test_corrupt_plans_rejected () =
  List.iter
    (fun (name, op, v) ->
      let st, cert = certified name op v in
      List.iter
        (fun fault ->
          match Specialize.corrupt fault st cert.Regions.rc_plan with
          | None -> ()
          | Some corrupted -> (
              match Certify.validate st corrupted with
              | Error (Robust.Guard.Static_violation _) -> ()
              | Error _ -> Alcotest.fail "unexpected guard kind"
              | Ok _ ->
                  Alcotest.failf "%s: %s not rejected" name (Specialize.fault_to_string fault)))
        faults)
    catalog

let test_corrupt_plans_execute_invisibly () =
  (* The whole point of translation validation: these faults produce a
     plan that runs to completion with bit-identical outputs — without
     Certify, nothing notices.  Two draws: a normal one, and the kernel
     bench's uniform one. *)
  List.iter
    (fun (name, op, v) ->
      let st, cert = certified name op v in
      List.iter
        (fun (uniform, seed) ->
          let x, w, _ = draw ~uniform ~seed (Staged.reference st) in
          let reference = Staged.forward st ~input:x ~weights:w in
          List.iter
            (fun fault ->
              match Specialize.corrupt fault st cert.Regions.rc_plan with
              | None -> ()
              | Some corrupted ->
                  let sp = Specialize.compile st corrupted in
                  let b = Specialize.forward sp ~input:x ~weights:w in
                  Alcotest.(check (array int64))
                    (Printf.sprintf "%s seed %d: %s invisible" name seed
                       (Specialize.fault_to_string fault))
                    (bits reference) (bits b))
            invisible_faults)
        [ (false, 7); (true, 23) ])
    catalog

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
    faults

let test_plan_shape_mismatch_rejected () =
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  let plan = cert.Regions.rc_plan in
  let last = Array.length plan - 1 in
  let final_accesses = List.length (List.nth (Staged.access_plan st) last) in
  let with_clip idx = Array.mapi (fun i clips -> if i = last then idx :: clips else clips) plan in
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

(* A tensor of the wrong shape would be read unchecked by the
   specialized nests, so both forwards must refuse it up front, naming
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

(* A random synthesized operator, [None] when the draw completes
   nothing.  Most draws are conv-shaped, [n; c_out; h; w] from
   [n; c_in; h; w]; an [Unfold] whose window is another output dim
   gives a dim that moves with no reduction axis, so at small [hw] some
   outputs read only padding and their box is empty.  One draw in
   seven contracts [c_in; h; w] to a 0-d output, its dims reduced and
   often folded by [Shift]/[Split] into closure dims.  An empty dim
   cannot be drawn: sizes are positive under every valuation, and
   [Nd.Tensor.create] refuses a zero extent. *)
let random_operator seed =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let search_v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () in
  let output_shape, desired_shape, reduce_candidates, frozen_sizes =
    if seed mod 7 = 3 then ([], [ sz c_in; sz h; sz w ], [ sz c_in; sz h; sz w; sz k ], [])
    else
      ( [ sz n; sz c_out; sz h; sz w ],
        [ sz n; sz c_in; sz h; sz w ],
        [ sz c_in; sz k ],
        [ sz n ] )
  in
  let base =
    Search.Enumerate.default_config ~output_shape ~desired_shape ~valuations:[ search_v ] ()
  in
  let cfg =
    {
      base with
      Search.Enumerate.max_prims = 7;
      coefficient_candidates = [ sz k; sz s ];
      reduce_candidates;
      frozen_sizes;
    }
  in
  Search.Enumerate.random_completion cfg (Rng.create ~seed) ~use_distance:true

(* A random conv valuation: size-1 axes, and windows as wide as or wider
   than the input ([hw < k]), included. *)
let random_valuation vseed =
  let vr = Rng.create ~seed:vseed in
  let pick l = List.nth l (Rng.int vr (List.length l)) in
  Zoo.Vars.conv_valuation ~n:(pick [ 1; 2 ]) ~c_in:(pick [ 1; 2; 4 ]) ~c_out:(pick [ 1; 2; 4 ])
    ~hw:(pick [ 1; 2; 3; 4; 6 ]) ~k:(pick [ 1; 3; 5 ]) ~g:(pick [ 1; 2 ]) ~s:(pick [ 1; 2 ]) ()

let random_specialized_agreement =
  QCheck.Test.make ~name:"random synthesized operators specialize bit-identically"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      match random_operator seed with
      | None -> true
      | Some op ->
          let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () in
          let st = Staged.compile op v in
          let cert = Regions.of_staged st in
          (match Certify.validate st cert.Regions.rc_plan with
          | Error _ -> false
          | Ok _ ->
              let sp = Specialize.compile st cert.Regions.rc_plan in
              let r = Staged.reference st in
              let data_rng = Rng.create ~seed:(seed + 1) in
              let x = Tensor.rand_normal data_rng ~scale:1.0 (Reference.input_shape r) in
              let w = Reference.init_weights r data_rng in
              let a = Staged.forward st ~input:x ~weights:w in
              let b = Specialize.forward sp ~input:x ~weights:w in
              bits a = bits b))

(* --- Border outputs: per-output clipping ----------------------------------- *)

(* A border output of the final nest ends in one of three cases: its
   clipped box is empty, every dim reads inside over the box, or a dim
   that moves with two window axes leaves its window somewhere in it
   and the output runs guarded.  The offset windows reach the first,
   the diagonal window the last; hw < k and size-1 axes shrink boxes
   to a point. *)
let border_fixtures =
  [
    ("offset-window", offset_window_conv);
    ("diagonal-window", diagonal_window_conv);
    ("strided-window", strided_window_conv);
    ("reversed-window", reversed_window_conv);
    ("reversed-strided-window", reversed_strided_window_conv);
    ("three-groups", three_group_conv);
  ]

(* A valuation under which some access never meets its window (the
   offset windows at hw < 4) is a verifier violation, which Certify
   rightly refuses; it proves nothing here. *)
let certifiable op v =
  match Verify.program_opt op v with Some (Verify.Proved | Verify.Padded _) -> true | _ -> false

let test_border_fixtures () =
  List.iter
    (fun (vname, v) ->
      List.iter
        (fun (name, op) ->
          if certifiable op v || vname = "hw10" then
            check_identical (Printf.sprintf "conv2d/%s %s" name vname) op v)
        border_fixtures)
    [
      ("hw10", valuation);
      ("hw2 k3", Zoo.Vars.conv_valuation ~n:1 ~c_in:2 ~c_out:2 ~hw:2 ~k:3 ~g:2 ~s:2 ());
      ("hw1 k5", Zoo.Vars.conv_valuation ~n:2 ~c_in:2 ~c_out:2 ~hw:1 ~k:5 ~g:1 ~s:1 ());
      ("ones", Zoo.Vars.conv_valuation ~n:1 ~c_in:1 ~c_out:1 ~hw:1 ~k:1 ~g:1 ~s:1 ());
    ]

(* [clips_exactly] is what the guarded-nest lint and the kernel bench
   read: true for every nest of the catalog at the test shapes; false
   for a dim that moves with two window axes and for a reduction hidden
   behind a [Div]. *)
let test_clips_exactly () =
  List.iter
    (fun (name, op, v) ->
      Alcotest.(check bool) (name ^ " clips exactly") true (clips name op v))
    catalog;
  Alcotest.(check bool) "conv2d/diagonal-window does not" false
    (clips "conv2d/diagonal-window" diagonal_window_conv valuation);
  Alcotest.(check bool) "conv2d/guarded-interior does not" false
    (clips "conv2d/guarded-interior" guarded_interior_conv valuation)

(* One NaN and one infinity at drawn offsets of [t]. *)
let plant rng t =
  let d = Tensor.unsafe_data t in
  d.(Rng.int rng (Array.length d)) <- Float.nan;
  d.(Rng.int rng (Array.length d)) <- Float.infinity

(* One infinite weight: the corner tap of the window, which every
   output in the top row or the left column reads from padding.  A
   clipped point adds nothing, so those outputs stay finite.  conv2d's
   plan has no stage, so the interpreter forms the reference's products
   in its order: all three agree bit for bit. *)
let test_non_finite_weight () =
  let _, v = List.hd proxy_valuations in
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator v in
  Alcotest.(check int) "conv2d runs no stage" 0 (Staged.num_stages st);
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let r = Staged.reference st in
  let rng = Rng.create ~seed:41 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  (* The first element is the corner tap of the window (both window
     iterators 0), on padding at the top and left edges. *)
  (Tensor.unsafe_data (List.hd w)).(0) <- Float.infinity;
  let a = Staged.forward st ~input:x ~weights:w in
  let shape = Tensor.shape a in
  let m = Array.length shape in
  let ho = shape.(m - 2) and wo = shape.(m - 1) in
  let clipped i = i mod wo = 0 || i / wo mod ho = 0 in
  let data = Tensor.unsafe_data a in
  Alcotest.(check bool) "the infinity reaches the output" true
    (Array.exists (fun y -> not (Float.is_finite y)) data);
  Alcotest.(check bool) "outputs whose clipped tap holds the infinity are finite" true
    (Array.for_all Fun.id (Array.mapi (fun i y -> (not (clipped i)) || Float.is_finite y) data));
  Alcotest.(check (array int64)) "conv2d with an infinite weight: staged = reference" (bits a)
    (bits (Reference.forward r ~input:x ~weights:w));
  Alcotest.(check (array int64)) "conv2d with an infinite weight: staged = specialized" (bits a)
    (bits (Specialize.forward sp ~input:x ~weights:w));
  (* The kernel bench's plant over the catalog: a NaN and an infinity in
     the input and in one weight, if any.  The specialized kernel
     matches the interpreter, and so does the reference on a plan with
     no stage. *)
  List.iter
    (fun (name, op, v) ->
      let st, cert = certified name op v in
      let sp = Specialize.compile st cert.Regions.rc_plan in
      let r = Staged.reference st in
      let x, w, rng = draw ~uniform:true ~seed:31 r in
      plant rng x;
      if w <> [] then plant rng (List.nth w (Rng.int rng (List.length w)));
      let a = Staged.forward st ~input:x ~weights:w in
      Alcotest.(check (array int64)) (name ^ " planted: specialized = staged") (bits a)
        (bits (Specialize.forward sp ~input:x ~weights:w));
      if Staged.num_stages st = 0 then
        Alcotest.(check (array int64)) (name ^ " planted: staged = reference") (bits a)
          (bits (Reference.forward r ~input:x ~weights:w)))
    catalog

(* The zoo operators whose staged plan materializes a stage at the test
   shapes: operator1, operator2, stacked_conv, nas_pte_bottleneck and
   nas_pte_depthwise_separable. *)
let multi_stage =
  List.filter
    (fun e -> Staged.num_stages (Staged.compile e.Zoo.operator valuation) > 0)
    zoo_cases

(* A NaN and an infinity in the input reach the first stage's nest, whose
   clipped points must leave them out exactly as the interpreter's
   zeroed products do. *)
let test_non_finite_stage_input () =
  Alcotest.(check int) "five multi-stage zoo operators" 5 (List.length multi_stage);
  List.iter
    (fun e ->
      let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
      let sp = Specialize.compile st cert.Regions.rc_plan in
      let r = Staged.reference st in
      let rng = Rng.create ~seed:43 in
      let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
      let w = Reference.init_weights r rng in
      let xd = Tensor.unsafe_data x in
      xd.(0) <- Float.nan;
      xd.(Array.length xd - 1) <- Float.infinity;
      let a = Staged.forward st ~input:x ~weights:w in
      Alcotest.(check bool) (e.Zoo.name ^ ": the NaN reaches the output") true
        (Array.exists Float.is_nan (Tensor.unsafe_data a));
      Alcotest.(check (array int64))
        (e.Zoo.name ^ " with a non-finite input: bit-identical")
        (bits a)
        (bits (Specialize.forward sp ~input:x ~weights:w)))
    multi_stage

(* One draw in three is a border fixture, the others random synthesized
   operators; [None] when the draw completes nothing. *)
let random_or_fixture seed =
  if seed mod 3 = 0 then
    Some (snd (List.nth border_fixtures (seed / 3 mod List.length border_fixtures)))
  else random_operator seed

(* Random synthesized operators, the border fixtures and the multi-stage
   zoo operators, at random valuations: the specialized kernel against
   the interpreter on every plan, and the interpreter against the
   reference on plans with no stage, bit for bit; first on finite
   values, then with a NaN and an infinity planted in the input and in
   one weight, where every clipped point must still add nothing. *)
let random_border_agreement =
  QCheck.Test.make ~name:"random operators at random valuations: specialized = staged"
    ~count:80
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, vseed) ->
      match
        (* One draw in four is a multi-stage zoo operator, so its stage
           nests meet windows wider than the input too. *)
        if seed mod 4 = 1 then
          Some (List.nth multi_stage (seed / 4 mod List.length multi_stage)).Zoo.operator
        else random_or_fixture seed
      with
      | None -> true
      | Some op -> (
          let v = random_valuation vseed in
          match Staged.compile op v with
          | exception Failure _ -> true
          | _ when not (certifiable op v) -> true
          | st -> (
              let cert = Regions.of_staged st in
              match Certify.validate st cert.Regions.rc_plan with
              | Error _ -> false
              | Ok _ ->
                  let sp = Specialize.compile st cert.Regions.rc_plan in
                  let r = Staged.reference st in
                  let data_rng = Rng.create ~seed:(vseed + 1) in
                  let x = Tensor.rand_normal data_rng ~scale:1.0 (Reference.input_shape r) in
                  let w = Reference.init_weights r data_rng in
                  let agree () =
                    let a = bits (Staged.forward st ~input:x ~weights:w) in
                    a = bits (Specialize.forward sp ~input:x ~weights:w)
                    && (Staged.num_stages st > 0 || a = bits (Reference.forward r ~input:x ~weights:w))
                  in
                  agree ()
                  &&
                  (plant data_rng x;
                   if w <> [] then plant data_rng (List.nth w (Rng.int data_rng (List.length w)));
                   agree ()))))

(* --- Certificate soundness against concrete values ---------------------------- *)

(* [Regions] proves a final-nest access in-window with interval
   arithmetic; here every such proof meets the values the nest really
   computes.  For each final access the certificate leaves out of the
   clip set, evaluate its expression at every point of the final nest
   (outputs times remaining reductions) and check [lo <= v < lo +
   extent].  Stage accesses are left out: [Regions] and the executor
   derive their values from the same positional formula, so
   enumerating it would check nothing.  Returns the first unsound
   access, as (access index, value). *)
let unsound_final_access st =
  let cert = Regions.of_staged st in
  let nests = Regions.nests st in
  let last = Array.length nests - 1 in
  match nests.(last) with
  | Regions.Stage _ -> Alcotest.fail "the last nest is not the final contraction"
  | Regions.Final f ->
      let lookup = Valuation.lookup (Staged.valuation st) in
      let proved =
        Array.to_list (Array.concat (Array.to_list f.Staged.fs_factors))
        |> List.mapi (fun idx acc -> (idx, acc))
        |> List.filter (fun (idx, _) -> not (List.mem idx cert.Regions.rc_plan.(last)))
      in
      let ids = Array.append f.Staged.fs_out_ids f.Staged.fs_red_ids in
      let doms = Array.append f.Staged.fs_out_doms f.Staged.fs_red_doms in
      let env = Array.make f.Staged.fs_env_size 0 in
      let found = ref None in
      (* every point of the nest, the last axis fastest *)
      let rec visit axis =
        if !found <> None then ()
        else if axis = Array.length ids then
          List.iter
            (fun (idx, (expr, lo, extent)) ->
              let v = Ast.eval ~env:(Array.get env) ~lookup expr in
              if (v < lo || v >= lo + extent) && !found = None then found := Some (idx, v))
            proved
        else
          for x = 0 to doms.(axis) - 1 do
            env.(ids.(axis)) <- x;
            visit (axis + 1)
          done
      in
      if proved <> [] then visit 0;
      !found

let test_final_certificates_sound () =
  let check name op v =
    match Staged.compile op v with
    | exception Failure _ -> ()
    | st -> (
        match unsound_final_access st with
        | None -> ()
        | Some (idx, value) ->
            Alcotest.failf "%s: final access %d proved in-window, but takes the value %d" name
              idx value)
  in
  let small = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:6 ~k:3 ~g:2 ~s:2 () in
  List.iter
    (fun e ->
      check e.Zoo.name e.Zoo.operator (if e == Zoo.matmul then matmul_valuation else small))
    (zoo_cases @ [ Zoo.matmul ]);
  for seed = 0 to 39 do
    match random_or_fixture seed with
    | None -> ()
    | Some op -> check (Printf.sprintf "draw %d" seed) op (random_valuation (seed + 101))
  done

(* --- Backward: the compiled nest against the per-point oracle ---------------- *)

(* A ReLU-style upstream gradient: about half of it is exactly 0, so the
   skipped outputs are exercised too. *)
let relu_grad rng shape =
  Tensor.map (fun v -> Float.max 0.0 v) (Tensor.rand_normal rng ~scale:1.0 shape)

(* [Reference.backward] and {!Naive_backward} on the same seeded
   arguments; [Some mismatch] names the first gradient whose bits differ. *)
let backward_mismatch ~seed op v =
  let r = Reference.compile op v in
  let rng = Rng.create ~seed in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let grad_out = relu_grad rng (Reference.output_shape r) in
  let gi, gws = Reference.backward r ~input:x ~weights:w ~grad_out in
  let gi', gws' = Naive_backward.backward op v ~input:x ~weights:w ~grad_out in
  if bits gi <> bits gi' then Some "grad_input"
  else
    List.find_map
      (fun (i, (a, b)) ->
        if bits a <> bits b then Some (Printf.sprintf "grad_weight %d" i) else None)
      (List.mapi (fun i p -> (i, p)) (List.combine gws gws'))

let check_backward ?(seed = 19) name op v =
  match backward_mismatch ~seed op v with
  | None -> ()
  | Some what -> Alcotest.failf "%s: %s differs from the per-point oracle" name what

(* Every zoo operator at the proxy-layer shapes of [Api.proxy_layer]. *)
let test_backward_zoo_proxy_shapes () =
  List.iter
    (fun (shape, v) ->
      List.iter
        (fun e -> check_backward (Printf.sprintf "%s %s" e.Zoo.name shape) e.Zoo.operator v)
        zoo_cases)
    proxy_valuations

(* Dims that need a closure, windows that clip every way, extra weight
   groups and size-1 axes: the fixtures both compiled nests must match
   their oracles on. *)
let closure_and_padding_fixtures () =
  let ones = Zoo.Vars.conv_valuation ~n:1 ~c_in:1 ~c_out:1 ~hw:1 ~k:1 ~g:1 ~s:1 () in
  [
    ("conv2d/guarded-interior", guarded_interior_conv, valuation);
    ("conv2d/folded-window", folded_window_conv, valuation);
    ("conv2d/strided-window", strided_window_conv, valuation);
    ("conv2d/reversed-window", reversed_window_conv, valuation);
    ("conv2d/reversed-strided-window", reversed_strided_window_conv, valuation);
    ("conv2d/diagonal-window", diagonal_window_conv, valuation);
    ("conv2d/three-groups", three_group_conv, valuation);
    ("conv2d/offset-window", offset_window_conv, valuation);
    ("matmul", Zoo.matmul.Zoo.operator, Zoo.Vars.matmul_valuation ~m:16 ~n:12 ~k:20);
  ]
  @ List.map
      (fun e -> (e.Zoo.name ^ "/ones", e.Zoo.operator, ones))
      [ Zoo.conv2d; Zoo.conv1x1; Zoo.depthwise_conv ]
  @ [
      ( "conv2d/hw1 k3",
        Zoo.conv2d.Zoo.operator,
        Zoo.Vars.conv_valuation ~n:2 ~c_in:2 ~c_out:2 ~hw:1 ~k:3 ~g:1 ~s:1 () );
    ]

let test_backward_closure_and_padding () =
  List.iter (fun (name, op, v) -> check_backward name op v) (closure_and_padding_fixtures ())

(* Random synthesized operators at random valuations, size-1 axes and
   windows wider than the input included; a valuation the operator
   cannot be instantiated at proves nothing. *)
let random_backward_agreement =
  QCheck.Test.make ~name:"random operators: compiled backward = per-point oracle" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, vseed) ->
      match random_operator seed with
      | None -> true
      | Some op -> (
          let v = random_valuation vseed in
          match Reference.compile op v with
          | exception Failure _ -> true
          | _ -> backward_mismatch ~seed:(seed + 1) op v = None))

(* --- Forward: the compiled nest against the per-point oracle ----------------- *)

(* [Reference.forward] and {!Naive_forward} on the same seeded
   arguments: whether their output bits differ. *)
let forward_differs ~seed op v =
  let r = Reference.compile op v in
  let rng = Rng.create ~seed in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  bits (Reference.forward r ~input:x ~weights:w)
  <> bits (Naive_forward.forward op v ~input:x ~weights:w)

let check_forward ?(seed = 23) name op v =
  if forward_differs ~seed op v then
    Alcotest.failf "%s: output differs from the per-point oracle" name

let test_forward_zoo_proxy_shapes () =
  List.iter
    (fun (shape, v) ->
      List.iter
        (fun e -> check_forward (Printf.sprintf "%s %s" e.Zoo.name shape) e.Zoo.operator v)
        zoo_cases)
    proxy_valuations

let test_forward_closure_and_padding () =
  List.iter (fun (name, op, v) -> check_forward name op v) (closure_and_padding_fixtures ())

let random_forward_agreement =
  QCheck.Test.make ~name:"random operators: compiled forward = per-point oracle" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, vseed) ->
      match random_or_fixture seed with
      | None -> true
      | Some op -> (
          let v = random_valuation vseed in
          match Reference.compile op v with
          | exception Failure _ -> true
          | _ -> not (forward_differs ~seed:(seed + 1) op v)))

(* --- Forward: blocks of outputs that share a walk ---------------------------- *)

(* conv2d with a second weight group over the output channel: two
   weights per point, the two-weight blocked kernel. *)
let two_group_conv =
  let conv = Zoo.conv2d.Zoo.operator in
  match conv.Graph.op_output_iters with
  | [ _; co; _; _ ] -> { conv with Graph.op_weights = conv.Graph.op_weights @ [ [ co ] ] }
  | _ -> Alcotest.fail "conv2d: unexpected iterators"

(* conv2d whose row coordinate moves with both window axes and whose
   column coordinate is shifted 3 right: at hw5 the outputs of a row
   are [Inside] (row 1) or [Partial] (every other row) on the left and
   [Empty] from column 3 on, so four consecutive outputs mix all
   three. *)
let mixed_box_conv =
  let conv = diagonal_window_conv in
  let exprs = conv.Graph.op_input_exprs in
  let last = List.length exprs - 1 in
  {
    conv with
    Graph.op_input_exprs =
      List.mapi (fun i e -> if i = last then Ast.Add (e, Ast.Const 3) else e) exprs;
  }

(* Innermost output extents 1, 2, 3, 5 and 7 over each blocked kernel:
   conv2d (one weight, shared along a row), conv1x1 (blocks that cross
   channels), the two-weight conv, avgpool (no weight) and matmul (one
   input element shared along a row); and the mixed-box conv at hw5. *)
let block_fixtures =
  List.concat_map
    (fun e ->
      let conv = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:e ~k:3 ~g:2 ~s:2 () in
      let tag name = Printf.sprintf "%s/extent %d" name e in
      [
        (tag "conv2d", Zoo.conv2d.Zoo.operator, conv);
        (tag "conv1x1", Zoo.conv1x1.Zoo.operator, conv);
        (tag "conv2d/two-groups", two_group_conv, conv);
        ( tag "avgpool",
          Zoo.avgpool.Zoo.operator,
          Zoo.Vars.conv_valuation ~n:1 ~c_in:1 ~c_out:1 ~hw:(2 * e) ~k:1 ~g:1 ~s:2 () );
        (tag "matmul", Zoo.matmul.Zoo.operator, Zoo.Vars.matmul_valuation ~m:3 ~n:e ~k:5);
      ])
    [ 1; 2; 3; 5; 7 ]
  @ [
      ( "conv2d/mixed-boxes hw5",
        mixed_box_conv,
        Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:5 ~k:3 ~g:2 ~s:2 () );
      ( "conv2d c8 hw7",
        Zoo.conv2d.Zoo.operator,
        Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:7 ~k:3 ~g:2 ~s:2 () );
    ]

(* A plan's one nest over output ranges cut at every [cut]-th output,
   each range with its own element and finish, as the pool's ranges of
   [Staged_exec.run_box] run: a cut falls mid-row and mid-block. *)
let forward_in_ranges nest ~extents ~cut datas =
  let volume = Array.fold_left ( * ) 1 extents in
  let out = Array.make volume 0.0 in
  let m = Array.length extents in
  let first = ref 0 in
  while !first < volume do
    let last = min volume (!first + cut) in
    let element, finish = Reference.forward_element nest datas out () in
    for w = !first to last - 1 do
      let pos = Array.make (max 1 m) 0 and rem = ref w in
      for i = m - 1 downto 0 do
        pos.(i) <- !rem mod extents.(i);
        rem := !rem / extents.(i)
      done;
      element pos w
    done;
    finish ();
    first := last
  done;
  Array.map Int64.bits_of_float out

(* Every fixture, finite and then with a NaN and an infinity planted in
   the input and in one weight: the specialized kernel at pool sizes 1
   and 2, the staged interpreter, the reference, the per-point oracle
   and the nest run in cut ranges agree bit for bit.  None of these
   plans has a stage, so all of them sum the same points in the same
   order. *)
let test_block_edges () =
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_domains (Par.Pool.num_domains ()))
    (fun () ->
      List.iter
        (fun (name, op, v) ->
          let st, cert = certified name op v in
          Alcotest.(check int) (name ^ ": no stage") 0 (Staged.num_stages st);
          let sp = Specialize.compile st cert.Regions.rc_plan in
          let nest = (Staged.nests st cert.Regions.rc_plan).(0) in
          let r = Staged.reference st in
          List.iter
            (fun planted ->
              let x, w, rng = draw ~uniform:true ~seed:37 r in
              if planted then begin
                plant rng x;
                if w <> [] then plant rng (List.nth w (Rng.int rng (List.length w)))
              end;
              let name = if planted then name ^ " planted" else name in
              let expected = bits (Naive_forward.forward op v ~input:x ~weights:w) in
              let check what got = Alcotest.(check (array int64)) (name ^ ": " ^ what) expected got in
              check "reference" (bits (Reference.forward r ~input:x ~weights:w));
              check "staged" (bits (Staged.forward st ~input:x ~weights:w));
              List.iter
                (fun domains ->
                  Par.Pool.set_default_domains domains;
                  check
                    (Printf.sprintf "specialized, %d domains" domains)
                    (bits (Specialize.forward sp ~input:x ~weights:w)))
                [ 1; 2 ];
              let datas = Array.of_list (List.map Tensor.unsafe_data (x :: w)) in
              List.iter
                (fun cut ->
                  check
                    (Printf.sprintf "ranges of %d" cut)
                    (forward_in_ranges nest ~extents:(Reference.output_shape r) ~cut datas))
                [ 1; 2; 3; 5; 7 ])
            [ false; true ])
        block_fixtures)

(* --- Einsum program: the gather, and every forward against Staged_exec ------ *)

let random_gather_agreement =
  QCheck.Test.make ~name:"random operators: einsum gather = per-point gather" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, vseed) ->
      match random_or_fixture seed with
      | None -> true
      | Some op -> (
          let v = random_valuation vseed in
          match Lower.Einsum_program.compile op v with
          | exception Failure _ -> true
          | ep ->
              let r = Reference.compile op v in
              let x =
                Tensor.rand_normal (Rng.create ~seed:(seed + 2)) ~scale:1.0 (Reference.input_shape r)
              in
              bits (Lower.Einsum_program.gather ep ~input:x)
              = bits (Naive_forward.gather op v ~input:x)))

(* [|a - s| <= tol * (1 + |s|)] everywhere, against the staged output
   [s]: the three backends sum in different orders. *)
let close ~expected got =
  let e = Tensor.unsafe_data expected and g = Tensor.unsafe_data got in
  Array.length e = Array.length g
  && Array.for_all2 (fun s a -> Float.abs (a -. s) <= 1e-9 *. (1.0 +. Float.abs s)) e g

(* A plan with no stage runs the reference's own nest, so there the
   staged output is also checked bit for bit against the per-point
   oracle, which shares none of it. *)
let random_forwards_agree =
  QCheck.Test.make
    ~name:"random operators at random valuations: reference, einsum ~ staged" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, vseed) ->
      match random_or_fixture seed with
      | None -> true
      | Some op -> (
          let v = random_valuation vseed in
          match Staged.compile op v with
          | exception Failure _ -> true
          | st ->
              let r = Staged.reference st in
              let rng = Rng.create ~seed:(vseed + 3) in
              let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
              let w = Reference.init_weights r rng in
              let staged = Staged.forward st ~input:x ~weights:w in
              let ep = Lower.Einsum_program.compile op v in
              close ~expected:staged (Reference.forward r ~input:x ~weights:w)
              && close ~expected:staged (Lower.Einsum_program.forward ep ~input:x ~weights:w)
              && (Staged.num_stages st > 0
                 || bits staged = bits (Naive_forward.forward op v ~input:x ~weights:w))))

(* The draw (8216, 196) of the property above: an operator whose
   coordinate expressions use a size that is not a positive integer at
   its valuation.  [Staged.compile] must refuse it with the same
   [Failure] as [Reference.compile], not hand back a program whose
   reference lowering fails later. *)
let test_uninstantiable_refused () =
  match random_or_fixture 8216 with
  | None -> Alcotest.fail "draw 8216 yields no operator"
  | Some op ->
      let v = random_valuation 196 in
      let failure f = match f () with exception Failure m -> Some m | _ -> None in
      let expected = failure (fun () -> ignore (Reference.compile op v)) in
      Alcotest.(check bool) "the reference refuses it" true (expected <> None);
      Alcotest.(check (option string)) "compile refuses it the same way" expected
        (failure (fun () -> ignore (Staged.compile op v)))

let () =
  Alcotest.run ~argv:Bench_inputs.argv "kernel"
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
      ( "border",
        [
          Alcotest.test_case "clip fixtures" `Quick test_border_fixtures;
          Alcotest.test_case "clips exactly" `Quick test_clips_exactly;
          Alcotest.test_case "non-finite weight" `Quick test_non_finite_weight;
          Alcotest.test_case "non-finite stage input" `Quick test_non_finite_stage_input;
          QCheck_alcotest.to_alcotest random_border_agreement;
          Alcotest.test_case "final certificates sound on concrete values" `Quick
            test_final_certificates_sound;
        ] );
      ( "backward",
        [
          Alcotest.test_case "zoo at proxy shapes" `Quick test_backward_zoo_proxy_shapes;
          Alcotest.test_case "closure, padding, size-1" `Quick test_backward_closure_and_padding;
          QCheck_alcotest.to_alcotest random_backward_agreement;
        ] );
      ( "forward",
        [
          Alcotest.test_case "zoo at proxy shapes" `Quick test_forward_zoo_proxy_shapes;
          Alcotest.test_case "closure, padding, size-1" `Quick test_forward_closure_and_padding;
          QCheck_alcotest.to_alcotest random_forward_agreement;
          Alcotest.test_case "block edges" `Quick test_block_edges;
        ] );
      ( "einsum",
        [
          QCheck_alcotest.to_alcotest random_gather_agreement;
          QCheck_alcotest.to_alcotest random_forwards_agree;
          Alcotest.test_case "uninstantiable operator refused" `Quick
            test_uninstantiable_refused;
        ] );
    ]

(* Tests for the admission layer: resource budgets (rejection before
   any allocation), differential validation across the four lowering
   backends, the composed gate, and its integration with the search. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Guard = Robust.Guard
module Budget = Validate.Budget
module Differential = Validate.Differential
module Admit = Validate.Admit
module Enumerate = Search.Enumerate
module Mcts = Search.Mcts
module Reward = Search.Reward
module Zoo = Syno.Zoo
module Api = Syno.Api

let conv = Zoo.conv2d.Zoo.operator
let tiny = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:4 ~k:3 ~g:2 ~s:2 ()
let search_v = List.hd Api.default_search_valuations

(* A valuation for a different signature: conv's variables are unbound,
   so conv is not instantiable under it. *)
let foreign = Zoo.Vars.matmul_valuation ~m:4 ~n:4 ~k:4

(* --- Budget ---------------------------------------------------------------- *)

let test_budget_estimate () =
  let e = Budget.estimate conv tiny in
  Alcotest.(check bool) "bytes positive" true (e.Budget.est_bytes > 0);
  Alcotest.(check int) "flops from the cost model"
    (Pgraph.Flops.naive_flops conv tiny)
    e.Budget.est_flops;
  Alcotest.(check bool) "gather term counted" true
    (e.Budget.est_bytes >= Budget.bytes_per_elem * e.Budget.est_gather_elems);
  let big = Budget.estimate conv search_v in
  Alcotest.(check bool) "monotone in the shape" true
    (big.Budget.est_bytes > e.Budget.est_bytes && big.Budget.est_flops > e.Budget.est_flops)

let test_budget_rejects_before_allocation () =
  let before = Tensor.allocations () in
  (match Budget.admit ~max_bytes:1 conv [ search_v ] with
  | Error (Guard.Over_budget _) -> ()
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "a 1-byte budget must reject");
  (match Budget.admit ~max_flops:1 conv [ search_v ] with
  | Error (Guard.Over_budget _) -> ()
  | _ -> Alcotest.fail "a 1-flop budget must reject");
  (* Generous budgets admit -- and the whole exercise, pass or fail,
     never allocates a tensor. *)
  (match Budget.admit ~max_bytes:max_int ~max_flops:max_int conv [ tiny; search_v ] with
  | Ok () -> ()
  | Error k -> Alcotest.failf "unexpected rejection %s" (Guard.kind_label k));
  Alcotest.(check int) "no tensor allocated by the budget gate" 0
    (Tensor.allocations () - before)

let test_budget_not_instantiable () =
  (match Budget.check conv foreign with
  | Error (Guard.Eval_error _) -> ()
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok _ -> Alcotest.fail "conv has unbound variables under a matmul valuation")

(* --- Differential validation ----------------------------------------------- *)

let test_differential_accepts_zoo () =
  List.iter
    (fun (entry : Zoo.entry) ->
      match Differential.check entry.Zoo.operator [ tiny ] with
      | Ok r ->
          Alcotest.(check int) (entry.Zoo.name ^ " checked") 1 r.Differential.rep_valuations;
          Alcotest.(check bool) (entry.Zoo.name ^ " compared elements") true
            (r.Differential.rep_elements > 0);
          Alcotest.(check bool) (entry.Zoo.name ^ " within tolerance") true
            (r.Differential.rep_max_rel_err <= Differential.default_config.Differential.tolerance)
      | Error k ->
          Alcotest.failf "%s rejected: %s" entry.Zoo.name (Guard.kind_label k))
    [ Zoo.conv2d; Zoo.conv1x1; Zoo.grouped_conv; Zoo.avgpool ]

let test_differential_skips_non_instantiable () =
  (* The gate must never quarantine a candidate the un-validated search
     would have scored: foreign valuations are skipped, not failed. *)
  match Differential.check conv [ foreign ] with
  | Ok r -> Alcotest.(check int) "skipped" 0 r.Differential.rep_valuations
  | Error k -> Alcotest.failf "skip expected, got %s" (Guard.kind_label k)

(* Each seeded mutant of the compiled nest, which the reference, the
   staged executor and the specialized kernel share, moves the reference
   away from the einsum program, which shares none of it: a typed
   backend mismatch on some catalog operator at [tiny]. *)
let test_differential_catches_nest_mutants () =
  List.iter
    (fun m ->
      let caught =
        Lower.Reference.with_mutant m (fun () ->
            List.exists
              (fun (e : Zoo.entry) ->
                match Differential.check e.Zoo.operator [ tiny ] with
                | Error (Guard.Backend_mismatch _) -> true
                | Ok _ | Error _ -> false)
              [ Zoo.conv2d; Zoo.grouped_conv; Zoo.shift_conv ])
      in
      Alcotest.(check bool) (Lower.Reference.mutant_to_string m ^ " caught") true caught;
      (* Disarmed again: the same checks pass. *)
      match Differential.check conv [ tiny ] with
      | Ok _ -> ()
      | Error k -> Alcotest.failf "after %s: %s" (Lower.Reference.mutant_to_string m) (Guard.kind_label k))
    Lower.Reference.mutants

(* At [tiny] (hw4) no four outputs of a row share a box, so the case
   above never reaches the forward's blocked kernels.  At hw10 they
   carry every output two or more columns from the edges: under each
   mutant that acts on a walk, some such output of conv2d's reference
   forward moves off its disarmed bits.  The dropped residue acts on
   the splitter instead, and conv2d's affine gather has no residue, so
   it must move shift_conv's output.  Under each, the full check still
   names the einsum program as the witness. *)
let blocked = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()

let test_nest_mutants_reach_blocked_kernels () =
  (* The output bits, or with [interior] only those two or more from
     every edge of the last two axes. *)
  let forward_bits ~interior op =
    let r = Lower.Reference.compile op blocked in
    let rng = Nd.Rng.create ~seed:5 in
    let x = Tensor.rand_normal rng ~scale:1.0 (Lower.Reference.input_shape r) in
    let w = Lower.Reference.init_weights r rng in
    let out = Lower.Reference.forward r ~input:x ~weights:w in
    let shape = Tensor.shape out in
    let m = Array.length shape in
    let hh = shape.(m - 2) and ww = shape.(m - 1) in
    let inner i n = i >= 2 && i < n - 2 in
    List.filteri
      (fun i _ -> (not interior) || (inner (i mod ww) ww && inner (i / ww mod hh) hh))
      (List.map Int64.bits_of_float (Array.to_list (Tensor.unsafe_data out)))
  in
  List.iter
    (fun m ->
      let name = Lower.Reference.mutant_to_string m in
      let op, interior =
        match m with
        | Lower.Reference.Dropped_residue -> (Zoo.shift_conv.Zoo.operator, false)
        | Clip_upper | Stride_sign | Short_run -> (conv, true)
      in
      let disarmed = forward_bits ~interior op in
      Lower.Reference.with_mutant m (fun () ->
          Alcotest.(check bool) (name ^ ": the reference forward moves") true
            (forward_bits ~interior op <> disarmed);
          match Differential.check_full op [ blocked ] with
          | Error { Differential.fl_kind = Guard.Backend_mismatch _; fl_backend = Some Differential.Einsum; _ }
            ->
              ()
          | Ok _ -> Alcotest.failf "%s: not caught" name
          | Error f -> Alcotest.failf "%s: %s" name (Guard.kind_label f.Differential.fl_kind)))
    Lower.Reference.mutants

(* The keys a cold [syno serve] request evaluates, as the differential
   bench builds them: the distinct conv-like zoo operators at n1, c_in
   and c_out in {4, 6, 8}, hw 4..8 and k in {1, 3}, each shape in four
   (g, s) variants, wherever the verifier finds no violation; every
   40th of them, or with [--full] all. *)
let key_grid =
  lazy
    (let seen = Hashtbl.create 16 in
     let ops =
       List.filter
         (fun (e : Zoo.entry) ->
           let s = Graph.operator_signature e.Zoo.operator in
           (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true))
         Zoo.conv_like
     in
     let keys =
       let ( let* ) l f = List.concat_map f l in
       let* (e : Zoo.entry) = ops in
       let* c_in = [ 4; 6; 8 ] in
       let* c_out = [ 4; 6; 8 ] in
       let* hw = [ 4; 5; 6; 7; 8 ] in
       let* k = [ 1; 3 ] in
       let* g, s = [ (1, 1); (1, 2); (2, 1); (2, 2) ] in
       let v = Zoo.Vars.conv_valuation ~n:1 ~c_in ~c_out ~hw ~k ~g ~s () in
       match Analysis.Verify.program_opt e.Zoo.operator v with
       | None | Some (Analysis.Verify.Violation _) -> []
       | Some _ ->
           [ (Printf.sprintf "%s@ci%d.co%d.hw%d.k%d.g%d.s%d" e.Zoo.name c_in c_out hw k g s,
              e.Zoo.operator, v) ]
     in
     if Bench_inputs.full then keys else List.filteri (fun i _ -> i mod 40 = 0) keys)

(* Every backend's forward on each key, the inputs drawn as the daemon
   draws them: per key its name, whether the einsum program, the staged
   interpreter and (when the key certifies) the specialized kernel agree
   with the reference within the differential tolerance, and whether the
   specialized kernel is bit-identical to the staged one ([None] when
   the key does not certify). *)
let key_grid_forwards =
  lazy
    (let tolerance = Differential.default_config.Differential.tolerance in
     let agrees ~expected got =
       Tensor.shape expected = Tensor.shape got
       && Array.for_all2
            (fun r c -> Float.abs (c -. r) <= tolerance *. (1.0 +. Float.abs r))
            (Tensor.unsafe_data expected) (Tensor.unsafe_data got)
     in
     let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t) in
     List.map
       (fun (name, op, v) ->
         let compiled = Lower.Reference.compile op v in
         let rng =
           Nd.Rng.create ~seed:(Differential.derive_seed ~seed:0 (Graph.operator_signature op))
         in
         let weights = Lower.Reference.init_weights compiled rng in
         let input =
           Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
         in
         let expected = Lower.Reference.forward compiled ~input ~weights in
         let ep = Lower.Einsum_program.compile op v in
         let st = Lower.Staged_exec.compile op v in
         let staged = Lower.Staged_exec.forward st ~input ~weights in
         let spec =
           match Analysis.Certify.specialize st with
           | Ok (Some sp) -> Some (Lower.Specialize.forward sp ~input ~weights)
           | Ok None | Error _ -> None
         in
         ( name,
           agrees ~expected (Lower.Einsum_program.forward ep ~input ~weights)
           && agrees ~expected staged
           && Option.fold ~none:true ~some:(agrees ~expected) spec,
           Option.map (fun spec -> bits spec = bits staged) spec ))
       (Lazy.force key_grid))

let test_key_grid_backends_agree () =
  List.iter
    (fun (name, agree, _) ->
      Alcotest.(check bool) (name ^ ": every backend agrees with the reference") true agree)
    (Lazy.force key_grid_forwards)

let test_key_grid_specialize_bit_identical () =
  List.iter
    (fun (name, _, identical) ->
      Alcotest.(check bool) (name ^ ": specialize bit-identical to staged") true
        (identical <> Some false))
    (Lazy.force key_grid_forwards)

let test_key_grid_some_keys_certify () =
  Alcotest.(check bool) "some keys certify" true
    (List.exists (fun (_, _, identical) -> identical <> None) (Lazy.force key_grid_forwards))

(* Each seeded mutant of the compiled nest surfaces as a typed backend
   mismatch of the full check on some key of the grid, with the einsum
   program as the witness: the mutant moves the reference, the staged
   executor and the specialized kernel together, so only the backend
   that shares none of the nest can show it. *)
let test_key_grid_catches_nest_mutants () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Lower.Reference.mutant_to_string m
        ^ " caught as an einsum backend mismatch on some key")
        true
        (Lower.Reference.with_mutant m (fun () ->
             List.exists
               (fun (_, op, v) ->
                 match Differential.check_full op [ v ] with
                 | Error
                     {
                       Differential.fl_kind = Guard.Backend_mismatch _;
                       fl_backend = Some Differential.Einsum;
                       _;
                     } ->
                     true
                 | Ok _ | Error _ -> false)
               (Lazy.force key_grid))))
    Lower.Reference.mutants

let test_differential_catches_fault () =
  (* The specialized backend runs only when certification accepts, so
     the operator must certify at this valuation for its fault to be
     delivered at all. *)
  (match Analysis.Certify.specialize (Lower.Staged_exec.compile conv tiny) with
  | Ok (Some _) -> ()
  | Ok None | Error _ -> Alcotest.fail "conv must certify at the tiny valuation");
  List.iter
    (fun backend ->
      let fault = Differential.fault ~seed:4 ~rate:1.0 backend in
      let config = Differential.config ~fault () in
      (match Differential.check ~config conv [ tiny ] with
      | Error (Guard.Backend_mismatch _) -> ()
      | Error k ->
          Alcotest.failf "%s fault: wrong kind %s"
            (Differential.backend_label backend)
            (Guard.kind_label k)
      | Ok _ ->
          Alcotest.failf "%s fault went undetected" (Differential.backend_label backend));
      Alcotest.(check int)
        (Differential.backend_label backend ^ " corruption delivered")
        1 (Differential.fault_count fault))
    Differential.backends

let test_differential_config_validation () =
  Alcotest.check_raises "tolerance must be positive"
    (Invalid_argument "Differential.config: tolerance must be > 0") (fun () ->
      ignore (Differential.config ~tolerance:0.0 ()))

(* --- Composed gate ---------------------------------------------------------- *)

let test_admit_gate_stats () =
  let g = Admit.create ~max_bytes:1 ~valuations:[ search_v ] () in
  Alcotest.(check bool) "active" true (Admit.active g);
  (match Admit.gate g conv with
  | Error (Guard.Over_budget _) -> ()
  | _ -> Alcotest.fail "expected over_budget");
  (match Admit.gate g conv with Error _ -> () | Ok () -> Alcotest.fail "still over budget");
  let s = Admit.stats g in
  Alcotest.(check int) "calls" 2 s.Admit.calls;
  Alcotest.(check int) "rejected" 2 s.Admit.rejected;
  Alcotest.(check bool) "time accounted" true (s.Admit.seconds >= 0.0)

let test_admit_gate_inactive () =
  let g = Admit.create () in
  Alcotest.(check bool) "inactive" false (Admit.active g);
  (match Admit.gate g conv with
  | Ok () -> ()
  | Error k -> Alcotest.failf "inactive gate rejected: %s" (Guard.kind_label k))

(* [check] is what [syno serve] answers a cold request from: the static
   verdict at each instantiable [static] valuation (a foreign one is
   skipped), and the differential report, whose reference sum is the
   served checksum — the reference forward on the weights-then-input
   draw from [derive_seed ~seed:0 signature]. *)
let test_admit_check_outcome () =
  let g =
    Admit.create ~static:[ foreign; tiny ] ~differential:Differential.default_config
      ~check_valuations:[ tiny ] ()
  in
  (match Admit.check g conv with
  | Error k -> Alcotest.failf "healthy conv rejected: %s" (Guard.kind_label k)
  | Ok o ->
      Alcotest.(check bool) "one verdict, the verifier's at the instantiable valuation" true
        (List.map snd o.Admit.verdicts = [ Analysis.Verify.program conv tiny ]);
      let report =
        match o.Admit.report with Some r -> r | None -> Alcotest.fail "no differential report"
      in
      let compiled = Lower.Reference.compile conv tiny in
      let rng =
        Nd.Rng.create ~seed:(Differential.derive_seed ~seed:0 (Graph.operator_signature conv))
      in
      let weights = Lower.Reference.init_weights compiled rng in
      let input =
        Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
      in
      Alcotest.(check (list (float 0.0))) "rep_sums is the reference sum"
        [ Tensor.sum (Lower.Reference.forward compiled ~input ~weights) ]
        report.Differential.rep_sums);
  (* Without a differential config there is no report; the verdicts
     stay. *)
  (match Admit.check (Admit.create ~static:[ tiny ] ()) conv with
  | Ok o ->
      Alcotest.(check bool) "no report without differential" true (o.Admit.report = None);
      Alcotest.(check int) "verdict kept" 1 (List.length o.Admit.verdicts)
  | Error k -> Alcotest.failf "static-only gate rejected: %s" (Guard.kind_label k));
  let s = Admit.stats g in
  Alcotest.(check int) "the call is counted" 1 s.Admit.calls;
  Alcotest.(check int) "and admitted" 0 s.Admit.rejected;
  (* A cancelled token stops the gate between stages; the call is not
     counted. *)
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.cancel ~reason:"test" cancel;
  (match Admit.check ~cancel g conv with
  | exception Robust.Cancel.Cancelled _ -> ()
  | _ -> Alcotest.fail "a cancelled gate must raise Cancelled");
  Alcotest.(check int) "cancelled call not counted" 1 (Admit.stats g).Admit.calls

(* The gate a cold [syno serve] request is admitted by — replay,
   static and differential at one valuation, with a corpus.  No wire
   request can carry a corrupted expression, so its static rejection
   and distillation are pinned here: the violation is the answer, and
   the corpus gains a static entry at that valuation. *)
let test_admit_serve_shaped_static_violation () =
  let corpus = Validate.Corpus.in_memory () in
  let g =
    Admit.create ~corpus ~static:[ tiny ] ~differential:Differential.default_config
      ~check_valuations:[ tiny ] ()
  in
  let bad = Differential.corrupt_operator conv in
  (match Admit.check g bad with
  | Error (Guard.Static_violation _) -> ()
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok _ -> Alcotest.fail "the corrupt expr must be a static violation");
  (match Validate.Corpus.entries corpus with
  | [ e ] ->
      Alcotest.(check string) "static origin" "static"
        (Validate.Corpus.origin_label e.Validate.Corpus.ce_origin);
      Alcotest.(check bool) "at the checked valuation" true
        (e.Validate.Corpus.ce_valuation == tiny)
  | es -> Alcotest.failf "expected one distilled entry, got %d" (List.length es));
  let s = Admit.stats g in
  Alcotest.(check int) "static rejection" 1 s.Admit.rejected_static;
  Alcotest.(check int) "distilled" 1 s.Admit.distilled

(* A corrupt-expr candidate reads consistently out of window, so every
   backend zero-clips it and differential validation alone passes it:
   only the static stage can reject, and without any tensor work. *)
let test_admit_static_catches_corrupt_expr () =
  let bad = Differential.corrupt_operator conv in
  (match Differential.check bad [ tiny ] with
  | Ok _ -> ()
  | Error k ->
      Alcotest.failf "differential unexpectedly caught the corrupt expr: %s"
        (Guard.kind_label k));
  let g =
    Admit.create ~static:[ tiny ] ~max_bytes:max_int ~valuations:[ tiny ]
      ~differential:Differential.default_config ()
  in
  Alcotest.(check bool) "active" true (Admit.active g);
  let before = Tensor.allocations () in
  (match Admit.gate g bad with
  | Error (Guard.Static_violation msg) ->
      Alcotest.(check bool) "diagnostic names the window" true
        (Astring.String.is_infix ~affix:"window" msg)
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "static gate must reject the corrupt expr");
  Alcotest.(check int) "rejected without allocating" 0 (Tensor.allocations () - before);
  (match Admit.gate g conv with
  | Ok () -> ()
  | Error k -> Alcotest.failf "healthy conv rejected: %s" (Guard.kind_label k));
  let s = Admit.stats g in
  Alcotest.(check int) "static rejections" 1 s.Admit.rejected_static;
  Alcotest.(check int) "budget rejections" 0 s.Admit.rejected_budget;
  Alcotest.(check int) "differential rejections" 0 s.Admit.rejected_differential;
  Alcotest.(check int) "total" 1 s.Admit.rejected

(* Stage order: a candidate that would fail several stages is charged
   to the earliest, and disabling a stage moves the verdict down the
   pipeline. *)
let test_admit_stage_order () =
  let bad = Differential.corrupt_operator conv in
  let with_static =
    Admit.create ~static:[ tiny ] ~max_bytes:1 ~valuations:[ tiny ]
      ~differential:Differential.default_config ()
  in
  (match Admit.gate with_static bad with
  | Error (Guard.Static_violation _) -> ()
  | Error k -> Alcotest.failf "static must win, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "must reject");
  let no_static =
    Admit.create ~max_bytes:1 ~valuations:[ tiny ]
      ~differential:Differential.default_config ()
  in
  (match Admit.gate no_static bad with
  | Error (Guard.Over_budget _) -> ()
  | Error k -> Alcotest.failf "budget must win next, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "must reject");
  (* The corrupt-output fault only materializes inside differential —
     static and budget both pass the healthy-looking graph. *)
  let fault = Differential.fault ~seed:4 ~rate:1.0 Differential.Einsum in
  let deep =
    Admit.create ~static:[ tiny ] ~max_bytes:max_int ~valuations:[ tiny ]
      ~differential:(Differential.config ~fault ()) ()
  in
  (match Admit.gate deep conv with
  | Error (Guard.Backend_mismatch _) -> ()
  | Error k -> Alcotest.failf "differential must reject, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "must reject");
  let s = Admit.stats deep in
  Alcotest.(check int) "charged to differential" 1 s.Admit.rejected_differential;
  Alcotest.(check int) "not to static" 0 s.Admit.rejected_static

(* The Corrupt_expr fault mode rewrites the candidate inside the
   differential checker itself; all backends then agree on zeros, so
   the check passes — proof that the static stage is load-bearing. *)
let test_corrupt_expr_fault_mode_invisible_to_differential () =
  let fault =
    Differential.fault ~seed:4 ~rate:1.0 ~mode:Differential.Corrupt_expr Differential.Reference
  in
  let config = Differential.config ~fault () in
  (match Differential.check ~config conv [ tiny ] with
  | Ok r -> Alcotest.(check int) "still checked" 1 r.Differential.rep_valuations
  | Error k ->
      Alcotest.failf "corrupt-expr fault visible to differential: %s" (Guard.kind_label k));
  Alcotest.(check int) "corruption delivered" 1 (Differential.fault_count fault);
  (* The same corruption applied to the operator record is caught
     statically. *)
  match Analysis.Verify.admit (Differential.corrupt_operator conv) [ tiny ] with
  | Error (Guard.Static_violation _) -> ()
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "static verifier must catch the corrupt expr"

(* --- Search integration ------------------------------------------------------ *)

let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kd = Var.primary "Kd"
let sz = Size.of_var
let matmul_v = Valuation.of_list [ (m, 8); (nd_, 8); (kd, 8) ]

let matmul_cfg () =
  let base =
    Enumerate.default_config ~output_shape:[ sz m; sz nd_ ] ~desired_shape:[ sz m; sz kd ]
      ~valuations:[ matmul_v ] ()
  in
  { base with Enumerate.max_prims = 4; reduce_candidates = [ sz kd ] }

let reward ~cancel:_ op = Reward.score op matmul_v
let config = Mcts.default_config ~iterations:120 ()
let top r = List.map (fun (x : Mcts.result) -> (Graph.operator_signature x.operator, x.reward)) r

let failed_kind (r : Api.search_run) kind =
  Option.value ~default:0 (List.assoc_opt kind r.Api.failures.Mcts.failed_attempts)

let test_search_admit_reject_all () =
  let r =
    Mcts.search_run ~config ~admit:(fun _ -> Error (Guard.Over_budget "cap 0"))
      (matmul_cfg ()) ~reward ~rng:(Nd.Rng.create ~seed:7) ()
  in
  Alcotest.(check bool) "found candidates" true (r.Mcts.results <> []);
  Alcotest.(check int) "nothing evaluated" 0 r.Mcts.stats.Mcts.evaluations;
  Alcotest.(check int) "all quarantined" (List.length r.Mcts.results)
    r.Mcts.stats.Mcts.quarantined;
  List.iter
    (fun (x : Mcts.result) -> Alcotest.(check bool) "quarantined" true x.Mcts.quarantined)
    r.Mcts.results;
  let over_budget =
    Option.value ~default:0 (List.assoc_opt "over_budget" r.Mcts.stats.Mcts.failed_attempts)
  in
  Alcotest.(check int) "rejections recorded as over_budget"
    r.Mcts.stats.Mcts.attempts over_budget;
  (* A real budget no candidate meets, on the validate bench's search. *)
  let starved = Bench_inputs.conv_search ~max_flops:1 () in
  Alcotest.(check int) "conv search at max-flops 1: nothing evaluated" 0
    starved.Api.failures.Mcts.evaluations;
  Alcotest.(check bool) "conv search at max-flops 1: over_budget rejections recorded" true
    (failed_kind starved "over_budget" > 0)

let test_search_admit_passthrough () =
  let clean = (Mcts.search_run ~config (matmul_cfg ()) ~reward
                 ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results in
  let gated =
    (Mcts.search_run ~config ~admit:(fun _ -> Ok ()) (matmul_cfg ()) ~reward
      ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results
  in
  Alcotest.(check bool) "admit Ok is invisible" true (top clean = top gated);
  (* Real validation of a fault-free search admits every candidate. *)
  Alcotest.(check bool) "conv search: validated top-K = unvalidated" true
    (Bench_inputs.(top (conv_search ()) = top (conv_search ~validate:true ())))

(* A seeded miscompile in the einsum backend, delivered to half the
   validated candidates of the validate bench's search: each one is
   quarantined as a backend mismatch. *)
let test_search_catches_every_miscompile () =
  let fault = Differential.fault ~seed:3 ~rate:0.5 Differential.Einsum in
  let r =
    Bench_inputs.conv_search ~validate:true ~validate_config:(Differential.config ~fault ()) ()
  in
  let delivered = Differential.fault_count fault in
  Alcotest.(check bool) "some miscompiles delivered" true (delivered > 0);
  Alcotest.(check int) "every one caught as backend_mismatch" delivered
    (failed_kind r "backend_mismatch")

(* --- Corrupt-resume handling at the API level -------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "syno_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_api_resume_corrupt () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc "garbage, not a checkpoint\n";
      close_out oc;
      let run ?on_corrupt () =
        Api.search_conv_operators_run ~iterations:40 ~max_prims:4 ~resume:path ?on_corrupt
          ~rng:(Nd.Rng.create ~seed:3) ~valuations:Api.default_search_valuations ()
      in
      (match run () with
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the header problem (%s)" msg)
            true
            (Astring.String.is_infix ~affix:"header" msg)
      | _ -> Alcotest.fail "corrupt resume must fail by default");
      let r = run ~on_corrupt:`Restart () in
      Alcotest.(check bool) "restart ignores the damaged file" true (r.Api.candidates <> []))

let () =
  Alcotest.run ~argv:Bench_inputs.argv "validate"
    [
      ( "budget",
        [
          Alcotest.test_case "estimate" `Quick test_budget_estimate;
          Alcotest.test_case "rejects before allocation" `Quick
            test_budget_rejects_before_allocation;
          Alcotest.test_case "not instantiable" `Quick test_budget_not_instantiable;
        ] );
      ( "differential",
        [
          Alcotest.test_case "accepts the zoo" `Quick test_differential_accepts_zoo;
          Alcotest.test_case "skips non-instantiable valuations" `Quick
            test_differential_skips_non_instantiable;
          Alcotest.test_case "catches a seeded miscompile" `Quick
            test_differential_catches_fault;
          Alcotest.test_case "config validation" `Quick test_differential_config_validation;
          Alcotest.test_case "catches seeded nest mutants" `Quick
            test_differential_catches_nest_mutants;
          Alcotest.test_case "nest mutants reach the blocked kernels" `Quick
            test_nest_mutants_reach_blocked_kernels;
        ] );
      ( "key grid",
        [
          Alcotest.test_case "every backend agrees with the reference" `Quick
            test_key_grid_backends_agree;
          Alcotest.test_case "specialize bit-identical to staged" `Quick
            test_key_grid_specialize_bit_identical;
          Alcotest.test_case "some keys certify" `Quick test_key_grid_some_keys_certify;
          Alcotest.test_case "every seeded nest mutant caught as a backend mismatch" `Quick
            test_key_grid_catches_nest_mutants;
        ] );
      ( "gate",
        [
          Alcotest.test_case "stats" `Quick test_admit_gate_stats;
          Alcotest.test_case "inactive" `Quick test_admit_gate_inactive;
          Alcotest.test_case "check: verdicts, report, stats" `Quick test_admit_check_outcome;
          Alcotest.test_case "serve-shaped gate: static violation distilled" `Quick
            test_admit_serve_shaped_static_violation;
          Alcotest.test_case "static catches corrupt expr, no allocation" `Quick
            test_admit_static_catches_corrupt_expr;
          Alcotest.test_case "stage order static > budget > differential" `Quick
            test_admit_stage_order;
          Alcotest.test_case "corrupt-expr fault invisible to differential" `Quick
            test_corrupt_expr_fault_mode_invisible_to_differential;
        ] );
      ( "search",
        [
          Alcotest.test_case "reject-all quarantines everything" `Quick
            test_search_admit_reject_all;
          Alcotest.test_case "admit Ok is invisible" `Quick test_search_admit_passthrough;
          Alcotest.test_case "every seeded miscompile caught" `Quick
            test_search_catches_every_miscompile;
          Alcotest.test_case "corrupt resume: fail or restart" `Quick test_api_resume_corrupt;
        ] );
    ]

(* Tests for the static analysis layer: the interval domain, the bounds
   verifier (every zoo operator proved or exactly padded; corrupted
   programs refused before any allocation), the rewrite-soundness
   checker, and the lint pass. *)

module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Guard = Robust.Guard
module Interval = Analysis.Interval
module Verify = Analysis.Verify
module Rewrite = Analysis.Rewrite
module Lint = Analysis.Lint
module Zoo = Syno.Zoo

let conv = Zoo.conv2d.Zoo.operator
let tiny = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:4 ~k:3 ~g:2 ~s:2 ()
let foreign = Zoo.Vars.matmul_valuation ~m:4 ~n:4 ~k:4

let interval = Alcotest.testable Interval.pp Interval.equal
let iv = Interval.make

(* --- Interval domain -------------------------------------------------------- *)

let test_interval_arith () =
  Alcotest.check interval "add" (iv 2 8) (Interval.add (iv 0 5) (iv 2 3));
  Alcotest.check interval "sub" (iv (-3) 3) (Interval.sub (iv 0 5) (iv 2 3));
  Alcotest.check interval "scale pos" (iv 0 15) (Interval.scale 3 (iv 0 5));
  Alcotest.check interval "scale neg" (iv (-15) 0) (Interval.scale (-3) (iv 0 5));
  Alcotest.check interval "fdiv floors negatives" (iv (-2) 1) (Interval.fdiv (iv (-4) 3) 2);
  Alcotest.check interval "join" (iv (-1) 9) (Interval.join (iv (-1) 2) (iv 4 9));
  Alcotest.check_raises "empty interval refused" (Invalid_argument "Interval.make: [3, 2] is empty")
    (fun () -> ignore (Interval.make 3 2))

let test_interval_emod () =
  (* Within one period: exact, not widened. *)
  Alcotest.check interval "in-range pass-through" (iv 1 3) (Interval.emod (iv 1 3) 5);
  Alcotest.check interval "single shifted period" (iv 1 3) (Interval.emod (iv 6 8) 5);
  Alcotest.check interval "negative period" (iv 2 4) (Interval.emod (iv (-3) (-1)) 5);
  (* Period crossing: widened to the full range. *)
  Alcotest.check interval "wraparound widens" (iv 0 4) (Interval.emod (iv 3 6) 5)

let test_interval_eval_tighter_than_bounds () =
  (* (i + 8) % 8 over i in [0, 1]: the operand range [8, 9] stays in a
     single period, so the interval domain keeps the exact [0, 1];
     Ast.bounds widens to [0, 7]. *)
  let it = { Ast.id = 0; dom = Size.of_int 2; role = Ast.Spatial } in
  let e = Ast.modulo (Ast.add (Ast.iter it) (Ast.const 8)) (Size.of_int 8) in
  let lookup _ = failwith "no variables" in
  Alcotest.check interval "exact period" (iv 0 1) (Interval.eval ~lookup e);
  let lo, hi = Ast.bounds ~lookup e in
  Alcotest.(check (pair int int)) "Ast.bounds is wider" (0, 7) (lo, hi)

(* Soundness + exactness against brute force on randomized small
   expressions is covered by the zoo sweep below, which compares the
   static intervals with the dynamically attained min/max. *)

(* --- Bounds verification over the zoo --------------------------------------- *)

(* The shape the analysis bench checks the zoo at: the differential
   validation shape, c8/hw4. *)
let validation_v = List.hd Syno.Api.default_validation_valuations

let valuation_for ?(conv_v = tiny) (entry : Zoo.entry) =
  (* Operators over the conv signature instantiate under [conv_v]; the
     matmul entry needs its own variables. *)
  if Option.is_some (Verify.program_opt entry.Zoo.operator conv_v) then conv_v else foreign

(* Each zoo operator at [tiny] and at [validation_v], matmul at [foreign]. *)
let zoo_at_both_shapes =
  List.concat_map
    (fun conv_v ->
      List.map (fun (entry : Zoo.entry) -> (entry, valuation_for ~conv_v entry)) Zoo.all)
    [ tiny; validation_v ]

let test_zoo_never_violates () =
  List.iter
    (fun ((entry : Zoo.entry), v) ->
      match Verify.program_opt entry.Zoo.operator v with
      | None -> Alcotest.failf "%s: not instantiable under either valuation" entry.Zoo.name
      | Some (Verify.Violation d) ->
          Alcotest.failf "%s: violation: %s" entry.Zoo.name (Verify.diagnostic_to_string d)
      | Some Verify.Proved | Some (Verify.Padded _) -> ())
    zoo_at_both_shapes

let test_zoo_verdict_shapes () =
  (* conv2d unfolds with a centering offset: padded, not proved. *)
  (match Verify.program conv tiny with
  | Verify.Padded regions ->
      Alcotest.(check bool) "conv2d has padded regions" true (regions <> [])
  | v -> Alcotest.failf "conv2d: expected padded, got %s" (Verify.verdict_to_string v));
  (* conv1x1 and matmul index exactly: proved. *)
  (match Verify.program Zoo.conv1x1.Zoo.operator tiny with
  | Verify.Proved -> ()
  | v -> Alcotest.failf "conv1x1: expected proved, got %s" (Verify.verdict_to_string v));
  match Verify.program Zoo.matmul.Zoo.operator foreign with
  | Verify.Proved -> ()
  | v -> Alcotest.failf "matmul: expected proved, got %s" (Verify.verdict_to_string v)

(* The static intervals for the input gather must match the dynamically
   attained min/max exactly: enumerate the full iteration space and
   compare.  This is the "precisely identifies the padded regions"
   guarantee, checked operator by operator. *)
let test_zoo_input_intervals_exact () =
  List.iter
    (fun (entry : Zoo.entry) ->
      let op = entry.Zoo.operator in
      let v = valuation_for entry in
      let lookup = Valuation.lookup v in
      List.iteri
        (fun dim expr ->
          let iters = Ast.iters expr in
          let doms = List.map (fun it -> Size.eval it.Ast.dom lookup) iters in
          let total = List.fold_left ( * ) 1 doms in
          if total <= 1 lsl 16 then begin
            let ids = Array.of_list (List.map (fun it -> it.Ast.id) iters) in
            let doms = Array.of_list doms in
            let n = Array.length doms in
            let values = Hashtbl.create 16 in
            let dyn_lo = ref max_int and dyn_hi = ref min_int in
            for flat = 0 to total - 1 do
              let rem = ref flat in
              for i = n - 1 downto 0 do
                Hashtbl.replace values ids.(i) (!rem mod doms.(i));
                rem := !rem / doms.(i)
              done;
              let x = Ast.eval ~env:(Hashtbl.find values) ~lookup expr in
              if x < !dyn_lo then dyn_lo := x;
              if x > !dyn_hi then dyn_hi := x
            done;
            let static = Interval.eval ~lookup expr in
            Alcotest.check interval
              (Printf.sprintf "%s input dim %d interval is exact" entry.Zoo.name dim)
              (iv !dyn_lo !dyn_hi) static
          end)
        op.Graph.op_input_exprs)
    Zoo.all

let corrupt op =
  (* Shift the first input expression past twice its extent: every
     access lands above the window, a statically refutable miscompile. *)
  let shift e s = Ast.add e (Ast.Size_const (Size.mul (Size.of_int 2) s)) in
  {
    op with
    Graph.op_input_exprs =
      (match (op.Graph.op_input_exprs, op.Graph.op_input_shape) with
      | e :: es, s :: _ -> shift e s :: es
      | _ -> assert false);
  }

(* The analysis bench's seeded OOB gathers: the first 6 healthy
   candidates (12 with [--full]) of its conv search, each with its
   input gather shifted out of the window. *)
let corrupted_candidates =
  lazy
    (List.filteri
       (fun i _ -> i < if Bench_inputs.full then 12 else 6)
       (List.filter_map
          (fun (c : Syno.Api.candidate) ->
            if c.quarantined then None
            else Some (Validate.Differential.corrupt_operator c.operator))
          (Bench_inputs.conv_search ()).candidates))

let test_corrupt_is_violation () =
  let bad = corrupt conv in
  (match Verify.program bad tiny with
  | Verify.Violation _ -> ()
  | v -> Alcotest.failf "corrupted conv: expected violation, got %s" (Verify.verdict_to_string v));
  (match Verify.admit bad [ tiny ] with
  | Error (Guard.Static_violation msg) ->
      Alcotest.(check bool) "diagnostic names the window" true
        (Astring.String.is_infix ~affix:"window" msg)
  | Error k -> Alcotest.failf "wrong kind %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "corrupted operator admitted");
  let candidates = Lazy.force corrupted_candidates in
  Alcotest.(check bool) "the search found candidates to corrupt" true (candidates <> []);
  List.iteri
    (fun i op ->
      match Verify.admit op [ validation_v ] with
      | Error (Guard.Static_violation _) -> ()
      | Error k -> Alcotest.failf "corrupted candidate %d: wrong kind %s" i (Guard.kind_label k)
      | Ok () -> Alcotest.failf "corrupted candidate %d admitted" i)
    candidates

let test_admit_allocates_nothing () =
  let candidates = Lazy.force corrupted_candidates in
  let before = Tensor.allocations () in
  List.iter
    (fun ((entry : Zoo.entry), v) -> ignore (Verify.admit entry.Zoo.operator [ v ]))
    zoo_at_both_shapes;
  (match Verify.admit (corrupt conv) [ tiny ] with Error _ -> () | Ok () -> ());
  List.iter (fun op -> ignore (Verify.admit op [ validation_v ])) candidates;
  Alcotest.(check int) "static verification allocates no tensor" 0
    (Tensor.allocations () - before)

let test_admit_skips_non_instantiable () =
  match Verify.admit conv [ foreign ] with
  | Ok () -> ()
  | Error k -> Alcotest.failf "foreign valuation must be skipped, got %s" (Guard.kind_label k)

(* --- Rewrite soundness -------------------------------------------------------- *)

let exact_ctx vals = Simplify.ctx ~approx_factor:None vals
let approx_ctx vals = Simplify.ctx vals

(* Conv-shaped operators built by seeded raw walks: from the empty
   pGraph, each step applies one uniformly drawn action of
   [Enumerate.candidate_actions] with no [Canon] filter, until the
   frontier completes to [n; c_in; h; w].  Their fresh expressions need
   not be in normal form, so the rewrite checker has fired rules to
   verify; the zoo's expressions are already normal.  The completed
   walks among the first [seeds], each at most [steps] actions long. *)
let raw_walk_operators ~seeds ~steps =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let desired = [ sz n; sz c_in; sz h; sz w ] in
  let cfg =
    {
      (Search.Enumerate.default_config
         ~output_shape:[ sz n; sz c_out; sz h; sz w ]
         ~desired_shape:desired ~valuations:[ tiny ] ())
      with
      Search.Enumerate.coefficient_candidates = [ sz k; sz s ];
      reduce_candidates = [ sz c_in; sz k ];
      frozen_sizes = [ sz n ];
    }
  in
  let rec walk rng g steps =
    match Graph.complete g ~desired with
    | Ok op -> Some op
    | Error _ when steps = 0 -> None
    | Error _ -> (
        let actions = Array.of_list (Search.Enumerate.candidate_actions cfg g) in
        match Graph.apply g actions.(Nd.Rng.int rng (Array.length actions)) with
        | Ok g' -> walk rng g' (steps - 1)
        | Error _ -> walk rng g (steps - 1))
  in
  List.filter_map
    (fun seed -> walk (Nd.Rng.create ~seed) (Graph.init cfg.Search.Enumerate.output_shape) steps)
    (List.init seeds Fun.id)

let test_zoo_rewrites_sound () =
  let walks = raw_walk_operators ~seeds:10000 ~steps:10 in
  let checked = ref 0 in
  List.iter
    (fun (name, op, v) ->
      let vals = [ v ] in
      List.iter
        (fun ctx ->
          let report = Rewrite.check_operator ctx op in
          checked := !checked + report.Rewrite.rp_checked;
          match report.Rewrite.rp_failures with
          | [] -> ()
          | f :: _ -> Alcotest.failf "%s: %s" name (Rewrite.failure_to_string f))
        [ exact_ctx vals; approx_ctx vals ])
    (List.map (fun ((e : Zoo.entry), v) -> (e.Zoo.name, e.Zoo.operator, v)) zoo_at_both_shapes
    @ List.concat_map
        (fun v ->
          List.mapi (fun i op -> (Printf.sprintf "raw walk %d" i, op, v)) walks)
        [ tiny; validation_v ]);
  Alcotest.(check bool) "some fired rewrite checked" true (!checked > 0)

let test_rewrite_checker_catches_unsound () =
  (* Plant the classic broken rule: (i + j) / B = i / B without any
     range justification for j. *)
  let b = Size.of_int 4 in
  let i = { Ast.id = 0; dom = Size.of_int 8; role = Ast.Spatial } in
  let j = { Ast.id = 1; dom = Size.of_int 8; role = Ast.Reduction } in
  let before = Ast.div (Ast.add (Ast.iter i) (Ast.iter j)) b in
  let after = Ast.div (Ast.iter i) b in
  let rw = { Simplify.rw_before = before; rw_after = after; rw_approx = false } in
  (match Rewrite.check_rewrite [ tiny ] rw with
  | Some f, `Exhaustive ->
      Alcotest.(check bool) "witness recorded" true (f.Rewrite.fl_witness <> [])
  | Some _, `Sampled -> Alcotest.fail "a 64-point space must be checked exhaustively"
  | None, _ -> Alcotest.fail "unsound rewrite not caught");
  (* The same pair tagged approximate is exempt. *)
  let approx = { rw with Simplify.rw_approx = true } in
  let report =
    List.fold_left
      (fun acc rw' ->
        if rw'.Simplify.rw_approx then
          { acc with Rewrite.rp_checked = acc.Rewrite.rp_checked + 1; rp_approx = acc.Rewrite.rp_approx + 1 }
        else acc)
      Rewrite.empty_report [ approx ]
  in
  Alcotest.(check int) "approx exempt" 1 report.Rewrite.rp_approx

let test_traced_simplify_agrees () =
  (* simplify_traced returns the same normal form as simplify, and the
     trace actually contains the fired rules for an expression known to
     simplify. *)
  let ctx = approx_ctx [ tiny ] in
  List.iter
    (fun e ->
      let plain = Simplify.simplify ctx e in
      let traced, fired = Simplify.simplify_traced ctx e in
      Alcotest.(check bool) "same normal form" true (Ast.equal plain traced);
      if not (Ast.equal plain e) then
        Alcotest.(check bool) "rewrites recorded" true (fired <> []))
    conv.Graph.op_input_exprs

(* --- Lint -------------------------------------------------------------------- *)

let test_zoo_lint_clean () =
  List.iter
    (fun ((entry : Zoo.entry), v) ->
      match Lint.errors (Lint.check ~valuations:[ v ] entry.Zoo.operator) with
      | [] -> ()
      | f :: _ -> Alcotest.failf "%s: %s" entry.Zoo.name (Lint.finding_to_string f))
    zoo_at_both_shapes

let test_lint_futile_reduction () =
  (* Blank conv2d's input gather: its reduction iterators then reach only
     a single weight group, i.e. the contraction folds to a constant. *)
  let bad =
    { conv with Graph.op_input_exprs = List.map (fun _ -> Ast.const 0) conv.Graph.op_input_exprs }
  in
  let findings = Lint.check bad in
  Alcotest.(check bool) "futile-reduction reported" true
    (List.exists (fun f -> f.Lint.lint_rule = "futile-reduction") (Lint.errors findings))

let test_lint_unknown_iterator () =
  let ghost = { Ast.id = 999; dom = Size.of_int 4; role = Ast.Reduction } in
  let bad =
    {
      conv with
      Graph.op_input_exprs =
        (match conv.Graph.op_input_exprs with
        | e :: es -> Ast.add e (Ast.iter ghost) :: es
        | [] -> assert false);
    }
  in
  let findings = Lint.check bad in
  Alcotest.(check bool) "unknown-iterator reported" true
    (List.exists (fun f -> f.Lint.lint_rule = "unknown-iterator") (Lint.errors findings))

let test_lint_dead_axis () =
  (* Deleting every use of a spatial iterator replicates the output. *)
  let bad =
    { conv with Graph.op_weights = []; Graph.op_input_exprs = []; Graph.op_input_shape = [] }
  in
  let findings = Lint.check bad in
  Alcotest.(check bool) "dead-axis reported" true
    (List.exists (fun f -> f.Lint.lint_rule = "dead-axis") (Lint.errors findings))

(* [guarded-nest] fires when some nest does not clip exactly, for either
   reason below; conv2d clips exactly and stays silent. *)
let check_guarded_nest what op =
  let rule findings = List.exists (fun f -> f.Lint.lint_rule = "guarded-nest") findings in
  Alcotest.(check bool) "conv2d: silent" false (rule (Lint.check ~valuations:[ tiny ] conv));
  let findings = Lint.check ~valuations:[ tiny ] op in
  Alcotest.(check bool) (what ^ ": guarded-nest reported") true (rule findings);
  Alcotest.(check bool) (what ^ ": only a warning") false (rule (Lint.errors findings))

let test_lint_guarded_interior () =
  (* [(2 * r) / 2] takes the same values as [r], so every access stays in
     window and the certificate keeps its interior; but a [Div] over a
     reduction iterator has no constant stride: a closure dim, so every
     output of the final nest runs guarded. *)
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
  check_guarded_nest "closure dim"
    { conv with Graph.op_input_exprs = List.map hide conv.Graph.op_input_exprs }

let test_lint_guarded_border () =
  (* A row coordinate that moves with both window axes cannot be clipped
     per axis, so a border output whose row leaves the input somewhere
     in its window runs the guarded loop. *)
  match (conv.Graph.op_input_exprs, conv.Graph.op_reductions) with
  | [ n; c; h; w ], [ _; _; r_w ] ->
      let half = Ast.Div (Ast.Size_const (Size.of_var Zoo.Vars.k), Size.of_int 2) in
      check_guarded_nest "two-axis dim"
        { conv with Graph.op_input_exprs = [ n; c; Ast.Sub (Ast.Add (h, Ast.iter r_w), half); w ] }
  | _ -> Alcotest.fail "conv2d: unexpected gather"

let test_lint_cost_cross_check () =
  List.iter
    (fun (entry : Zoo.entry) ->
      let op = entry.Zoo.operator in
      let v = valuation_for entry in
      let c = Lint.cost op v in
      Alcotest.(check int) (entry.Zoo.name ^ " flops") (Pgraph.Flops.naive_flops op v)
        c.Lint.c_flops;
      Alcotest.(check int) (entry.Zoo.name ^ " peak") (Pgraph.Flops.peak_footprint op v)
        c.Lint.c_peak_elems;
      let est = Validate.Budget.estimate op v in
      Alcotest.(check int)
        (entry.Zoo.name ^ " budget bytes = priced peak")
        (Validate.Budget.bytes_per_elem * c.Lint.c_peak_elems)
        est.Validate.Budget.est_bytes;
      Alcotest.(check int) (entry.Zoo.name ^ " budget flops") c.Lint.c_flops
        est.Validate.Budget.est_flops)
    Zoo.all

let () =
  Alcotest.run ~argv:Bench_inputs.argv "analysis"
    [
      ( "interval",
        [
          Alcotest.test_case "arithmetic" `Quick test_interval_arith;
          Alcotest.test_case "emod wraparound" `Quick test_interval_emod;
          Alcotest.test_case "tighter than Ast.bounds" `Quick
            test_interval_eval_tighter_than_bounds;
        ] );
      ( "verify",
        [
          Alcotest.test_case "zoo never violates" `Quick test_zoo_never_violates;
          Alcotest.test_case "verdict shapes" `Quick test_zoo_verdict_shapes;
          Alcotest.test_case "input intervals exact" `Quick test_zoo_input_intervals_exact;
          Alcotest.test_case "corrupted program is a violation" `Quick
            test_corrupt_is_violation;
          Alcotest.test_case "zero allocations" `Quick test_admit_allocates_nothing;
          Alcotest.test_case "skips non-instantiable" `Quick test_admit_skips_non_instantiable;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "zoo rewrites sound" `Quick test_zoo_rewrites_sound;
          Alcotest.test_case "catches an unsound rule" `Quick
            test_rewrite_checker_catches_unsound;
          Alcotest.test_case "traced simplify agrees" `Quick test_traced_simplify_agrees;
        ] );
      ( "lint",
        [
          Alcotest.test_case "zoo is clean" `Quick test_zoo_lint_clean;
          Alcotest.test_case "futile reduction" `Quick test_lint_futile_reduction;
          Alcotest.test_case "unknown iterator" `Quick test_lint_unknown_iterator;
          Alcotest.test_case "dead axis" `Quick test_lint_dead_axis;
          Alcotest.test_case "guarded interior" `Quick test_lint_guarded_interior;
          Alcotest.test_case "guarded border" `Quick test_lint_guarded_border;
          Alcotest.test_case "cost cross-check" `Quick test_lint_cost_cross_check;
        ] );
    ]

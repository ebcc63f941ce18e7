(* Tests for the fault-tolerance layer: Guard / Inject, quarantine and
   NaN-safe ranking in the search, and checkpoint/resume equivalence. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Enumerate = Search.Enumerate
module Mcts = Search.Mcts
module Reward = Search.Reward
module Checkpoint = Search.Checkpoint
module Guard = Robust.Guard
module Inject = Robust.Inject
module Cancel = Robust.Cancel

(* --- Cancel --------------------------------------------------------------- *)

let test_cancel_explicit () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token untripped" false (Cancel.is_cancelled t);
  Cancel.check t;
  Cancel.cancel ~reason:"test" t;
  Alcotest.(check bool) "tripped" true (Cancel.is_cancelled t);
  (match Cancel.status t with
  | Some (Cancel.Cancelled_by "test") -> ()
  | _ -> Alcotest.fail "expected Cancelled_by \"test\"");
  Alcotest.check_raises "check raises"
    (Cancel.Cancelled (Cancel.Cancelled_by "test"))
    (fun () -> Cancel.check t)

let test_cancel_deadline_fake_clock () =
  (* The deadline is evaluated lazily against the injected clock, so the
     trip is fully deterministic: untripped at 4.9, tripped at 5.0. *)
  let t = ref 0.0 in
  let clock () = !t in
  let tok = Cancel.of_deadline ~clock 5.0 in
  Alcotest.(check (option (float 0.0))) "deadline recorded" (Some 5.0) (Cancel.deadline tok);
  t := 4.9;
  Alcotest.(check bool) "before deadline" false (Cancel.is_cancelled tok);
  Alcotest.(check (option (float 1e-9))) "remaining" (Some 0.1) (Cancel.remaining tok);
  t := 5.0;
  Alcotest.(check bool) "at deadline" true (Cancel.is_cancelled tok);
  (match Cancel.status tok with
  | Some (Cancel.Deadline_exceeded d) -> Alcotest.(check (float 0.0)) "which deadline" 5.0 d
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  (* The verdict is cached: winding the clock back cannot untrip it. *)
  t := 0.0;
  Alcotest.(check bool) "trip is permanent" true (Cancel.is_cancelled tok)

let test_cancel_child_inherits_parent () =
  let parent = Cancel.create () in
  let child = Cancel.create ~parent () in
  Alcotest.(check bool) "child untripped" false (Cancel.is_cancelled child);
  Cancel.cancel ~reason:"shutdown" parent;
  Alcotest.(check bool) "child observes parent" true (Cancel.is_cancelled child);
  (match Cancel.status child with
  | Some (Cancel.Cancelled_by "shutdown") -> ()
  | _ -> Alcotest.fail "child should report the parent's reason");
  (* Cancelling a child leaves the parent untouched. *)
  let p2 = Cancel.create () in
  let c2 = Cancel.create ~parent:p2 () in
  Cancel.cancel c2;
  Alcotest.(check bool) "parent unaffected" false (Cancel.is_cancelled p2);
  (* A deadline child of a healthy parent trips on its own clock. *)
  let t = ref 0.0 in
  let c3 = Cancel.of_deadline ~parent:p2 ~clock:(fun () -> !t) 1.0 in
  t := 2.0;
  Alcotest.(check bool) "deadline child trips" true (Cancel.is_cancelled c3);
  Alcotest.(check bool) "parent still unaffected" false (Cancel.is_cancelled p2)

let test_cancel_first_reason_wins () =
  let t = ref 10.0 in
  let tok = Cancel.of_deadline ~clock:(fun () -> !t) 5.0 in
  (* The deadline has already passed when the explicit cancel arrives;
     whichever is observed first is the one reason forever after. *)
  Alcotest.(check bool) "deadline observed" true (Cancel.is_cancelled tok);
  Cancel.cancel ~reason:"late caller" tok;
  (match Cancel.status tok with
  | Some (Cancel.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "first (deadline) reason must win");
  let tok2 = Cancel.create () in
  Cancel.cancel ~reason:"first" tok2;
  Cancel.cancel ~reason:"second" tok2;
  match Cancel.status tok2 with
  | Some (Cancel.Cancelled_by "first") -> ()
  | _ -> Alcotest.fail "first explicit reason must win"

(* The serving daemon mints a child token per accepted request
   (request deadline under the server's work root); these three pin the
   edge cases that path depends on. *)

let test_cancel_already_expired_deadline () =
  (* A request whose deadline has already passed by dispatch time
     (queueing, clock skew): the token is born tripped and [check]
     raises before any work runs. *)
  let t = ref 7.0 in
  let clock () = !t in
  let tok = Cancel.of_deadline ~clock 5.0 in
  Alcotest.(check bool) "born tripped" true (Cancel.is_cancelled tok);
  (match Cancel.status tok with
  | Some (Cancel.Deadline_exceeded d) -> Alcotest.(check (float 0.0)) "which deadline" 5.0 d
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  Alcotest.check_raises "check raises immediately"
    (Cancel.Cancelled (Cancel.Deadline_exceeded 5.0))
    (fun () -> Cancel.check tok)

let test_cancel_parent_between_accept_and_dispatch () =
  (* A request is admitted (child minted from the work root), then the
     root is cancelled before a worker picks the job up: the child must
     observe the parent's reason even though its own deadline is far
     away. *)
  let t = ref 0.0 in
  let clock () = !t in
  let parent = Cancel.create () in
  let child = Cancel.of_deadline ~parent ~clock 100.0 in
  Alcotest.(check bool) "admitted untripped" false (Cancel.is_cancelled child);
  Cancel.cancel ~reason:"shutdown" parent;
  Alcotest.(check bool) "dispatch observes the shutdown" true (Cancel.is_cancelled child);
  (match Cancel.status child with
  | Some (Cancel.Cancelled_by "shutdown") -> ()
  | _ -> Alcotest.fail "child must report the parent's reason");
  Alcotest.check_raises "check raises the parent's reason"
    (Cancel.Cancelled (Cancel.Cancelled_by "shutdown"))
    (fun () -> Cancel.check child)

let test_cancel_child_deadline_after_parents () =
  (* A request asks for a deadline *later* than the server's own: the
     parent's earlier deadline wins, and the child reports the parent's
     deadline, not its own. *)
  let t = ref 0.0 in
  let clock () = !t in
  let parent = Cancel.of_deadline ~clock 5.0 in
  let child = Cancel.of_deadline ~parent ~clock 10.0 in
  t := 4.9;
  Alcotest.(check bool) "both live before the parent trips" false (Cancel.is_cancelled child);
  t := 6.0;
  Alcotest.(check bool) "parent deadline trips the child" true (Cancel.is_cancelled child);
  (match Cancel.status child with
  | Some (Cancel.Deadline_exceeded d) ->
      Alcotest.(check (float 0.0)) "parent's deadline" 5.0 d
  | _ -> Alcotest.fail "expected the parent's Deadline_exceeded");
  (* Past the child's own deadline too, the first-observed reason is
     stable. *)
  t := 20.0;
  match Cancel.status child with
  | Some (Cancel.Deadline_exceeded d) -> Alcotest.(check (float 0.0)) "reason stable" 5.0 d
  | _ -> Alcotest.fail "expected the cached parent reason"

(* --- Guard ---------------------------------------------------------------- *)

let test_guard_success_passthrough () =
  let out = Guard.run ~key:"k" (fun _ -> 0.75) in
  Alcotest.(check bool) "ok" true (out.Guard.result = Ok 0.75);
  Alcotest.(check int) "one attempt" 1 out.Guard.attempts;
  Alcotest.(check int) "no failures" 0 (List.length out.Guard.failures);
  Alcotest.(check (float 0.0)) "no sleeping" 0.0 out.Guard.slept

let test_guard_retry_backoff_schedule () =
  let policy = Guard.policy ~retries:3 ~backoff:0.5 ~backoff_factor:2.0 ~max_backoff:1.0 () in
  Alcotest.(check (list (float 1e-12))) "schedule" [ 0.5; 1.0; 1.0 ] (Guard.delays policy);
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let calls = ref 0 in
  let out =
    Guard.run ~policy ~sleep ~key:"k" (fun _ ->
        incr calls;
        if !calls <= 2 then failwith "flaky" else 0.25)
  in
  Alcotest.(check bool) "recovers" true (out.Guard.result = Ok 0.25);
  Alcotest.(check int) "attempts" 3 out.Guard.attempts;
  (* The sleeps actually performed are exactly the first two entries of
     the deterministic schedule. *)
  Alcotest.(check (list (float 1e-12))) "slept delays" [ 0.5; 1.0 ] (List.rev !slept);
  Alcotest.(check (float 1e-12)) "slept total" 1.5 out.Guard.slept;
  Alcotest.(check int) "failures recorded" 2 (List.length out.Guard.failures);
  List.iter
    (fun k ->
      Alcotest.(check string) "classified eval_error" "eval_error" (Guard.kind_label k))
    out.Guard.failures

(* --- Seeded jitter ---------------------------------------------------------- *)

let jittered ?(seed = 7) () =
  Guard.policy ~retries:4 ~backoff:0.5 ~backoff_factor:2.0 ~max_backoff:4.0 ~jitter:0.5
    ~jitter_seed:seed ()

let test_jitter_reproducible () =
  (* The jitter stream is a pure function of (seed, key, retry): the
     same inputs give a bit-for-bit identical schedule, and changing
     either the seed or the key changes it. *)
  let p = jittered () in
  let a = Guard.delays ~key:"op-a" p in
  Alcotest.(check (list (float 0.0))) "bit-for-bit reproducible" a (Guard.delays ~key:"op-a" p);
  Alcotest.(check bool) "seed changes the schedule" true
    (Guard.delays ~key:"op-a" (jittered ~seed:8 ()) <> a);
  Alcotest.(check bool) "key decorrelates callers" true (Guard.delays ~key:"op-b" p <> a)

let test_jitter_bounds () =
  (* Every jittered delay stays within +-(jitter/2) of the exponential
     base and never exceeds max_backoff. *)
  let p =
    Guard.policy ~retries:6 ~backoff:0.3 ~backoff_factor:2.0 ~max_backoff:2.0 ~jitter:1.0
      ~jitter_seed:42 ()
  in
  List.iteri
    (fun i d ->
      let base = Float.min 2.0 (0.3 *. (2.0 ** float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "retry %d delay %g within [%g, %g]" (i + 1) d (base *. 0.5)
           (Float.min 2.0 (base *. 1.5)))
        true
        (d >= (base *. 0.5) -. 1e-12 && d <= Float.min 2.0 (base *. 1.5) +. 1e-12))
    (Guard.delays ~key:"k" p)

let test_jitter_zero_is_legacy_schedule () =
  (* jitter = 0 (the default) must reproduce the historical
     deterministic schedule exactly, for any key. *)
  let p = Guard.policy ~retries:3 ~backoff:0.5 ~backoff_factor:2.0 ~max_backoff:1.0 () in
  List.iter
    (fun key ->
      Alcotest.(check (list (float 0.0))) ("key " ^ key) [ 0.5; 1.0; 1.0 ]
        (Guard.delays ~key p))
    [ ""; "a"; "some/operator@sig" ]

let test_jitter_validation () =
  let rejects j =
    Alcotest.check_raises
      (Printf.sprintf "jitter %g rejected" j)
      (Invalid_argument "Guard.policy: jitter must be in [0, 1]")
      (fun () -> ignore (Guard.policy ~jitter:j ()))
  in
  rejects 1.5;
  rejects (-0.1);
  rejects Float.nan

let test_jitter_run_sleeps_keyed_schedule () =
  (* Guard.run's actual sleeps are exactly the keyed schedule that
     [delays] predicts — the jitter is observable, not advisory. *)
  let p = jittered () in
  let slept = ref [] in
  let out =
    Guard.run ~policy:p
      ~sleep:(fun d -> slept := d :: !slept)
      ~key:"shared/resource"
      (fun _ -> raise Not_found)
  in
  (match out.Guard.result with
  | Error (Guard.Eval_error _) -> ()
  | _ -> Alcotest.fail "expected exhaustion");
  Alcotest.(check (list (float 0.0))) "sleeps follow the keyed schedule"
    (Guard.delays ~key:"shared/resource" p)
    (List.rev !slept)

let test_guard_exhausts_retries () =
  let policy = Guard.policy ~retries:2 () in
  let out = Guard.run ~policy ~key:"k" (fun _ -> raise Not_found) in
  (match out.Guard.result with
  | Error (Guard.Eval_error _) -> ()
  | _ -> Alcotest.fail "expected Eval_error");
  Alcotest.(check int) "attempts = 1 + retries" 3 out.Guard.attempts;
  Alcotest.(check int) "a failure per attempt" 3 (List.length out.Guard.failures)

let test_guard_non_finite () =
  List.iter
    (fun bad ->
      let out = Guard.run ~policy:(Guard.policy ~retries:1 ()) ~key:"k" (fun _ -> bad) in
      Alcotest.(check bool) "non_finite" true (out.Guard.result = Error Guard.Non_finite))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_guard_timeout () =
  (* A fake clock that jumps 10 s per reading: every attempt blows a 5 s
     budget even though the thunk returns instantly. *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 10.0;
    !t
  in
  let policy = Guard.policy ~retries:1 ~timeout:5.0 () in
  let out = Guard.run ~policy ~now ~key:"k" (fun _ -> 1.0) in
  Alcotest.(check bool) "timeout" true (out.Guard.result = Error Guard.Timeout);
  Alcotest.(check int) "retried once" 2 out.Guard.attempts;
  (* With a generous budget the same thunk passes. *)
  let out = Guard.run ~policy:(Guard.policy ~timeout:1e6 ()) ~now ~key:"k" (fun _ -> 1.0) in
  Alcotest.(check bool) "within budget" true (out.Guard.result = Ok 1.0)

let test_guard_preemptive_deadline () =
  (* The thunk polls its token inside a "long" loop; the fake clock
     advances one second per iteration, so a 3 s budget preempts it at
     the fourth poll — the loop never runs to completion. *)
  let t = ref 0.0 in
  let now () = !t in
  let iterations = ref 0 in
  let policy = Guard.policy ~retries:0 ~timeout:3.0 () in
  let out =
    Guard.run ~policy ~now ~key:"k" (fun token ->
        for _ = 1 to 1000 do
          t := !t +. 1.0;
          incr iterations;
          Cancel.check token
        done;
        1.0)
  in
  Alcotest.(check bool) "classified Timeout" true (out.Guard.result = Error Guard.Timeout);
  Alcotest.(check bool)
    (Printf.sprintf "preempted early (%d iterations)" !iterations)
    true (!iterations < 10)

let test_guard_exception_after_budget_is_timeout () =
  (* Satellite bugfix: an exception raised after the budget expired is a
     symptom of the overrun, so it must classify as Timeout, not
     Eval_error.  The fake clock blows the budget before the raise. *)
  let t = ref 0.0 in
  let now () = !t in
  let policy = Guard.policy ~retries:0 ~timeout:5.0 () in
  let out =
    Guard.run ~policy ~now ~key:"k" (fun _ ->
        t := !t +. 100.0;
        raise Not_found)
  in
  Alcotest.(check bool) "Timeout, not Eval_error" true (out.Guard.result = Error Guard.Timeout);
  (* Within budget the same raise still classifies as Eval_error. *)
  let out =
    Guard.run ~policy ~now:(fun () -> 0.0) ~key:"k" (fun _ -> raise Not_found)
  in
  match out.Guard.result with
  | Error (Guard.Eval_error _) -> ()
  | _ -> Alcotest.fail "expected Eval_error within budget"

let test_guard_external_cancel_reraises () =
  (* A shutdown (external token) observed inside the thunk is not a
     verdict on the candidate: Cancelled escapes the guard so the
     search loop can stop, instead of being classified as Timeout. *)
  let external_tok = Cancel.create () in
  let raised = ref false in
  (try
     ignore
       (Guard.run
          ~policy:(Guard.policy ~retries:2 ~timeout:1e6 ())
          ~cancel:external_tok ~key:"k"
          (fun token ->
            Cancel.cancel ~reason:"shutdown" external_tok;
            Cancel.check token;
            1.0))
   with Cancel.Cancelled _ -> raised := true);
  Alcotest.(check bool) "Cancelled escapes" true !raised;
  (* And a pre-tripped external token stops the attempt loop before the
     thunk ever runs. *)
  let calls = ref 0 in
  let raised = ref false in
  (try
     ignore
       (Guard.run ~cancel:external_tok ~key:"k" (fun _ ->
            incr calls;
            1.0))
   with Cancel.Cancelled _ -> raised := true);
  Alcotest.(check bool) "raised before any attempt" true !raised;
  Alcotest.(check int) "thunk never ran" 0 !calls

let test_guard_injected () =
  let inject = Inject.create ~seed:3 ~rate:1.0 ~max_failures:1 () in
  let out = Guard.run ~policy:(Guard.policy ~retries:2 ()) ~inject ~key:"sig" (fun _ -> 0.5) in
  Alcotest.(check bool) "recovers after injected fault" true (out.Guard.result = Ok 0.5);
  Alcotest.(check bool) "injected recorded" true (List.mem Guard.Injected out.Guard.failures);
  Alcotest.(check int) "counted" 1 (Inject.injected_count inject)

(* --- Inject --------------------------------------------------------------- *)

let test_inject_deterministic () =
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%d" i) in
  let a = Inject.create ~seed:11 ~rate:0.4 ~max_failures:3 () in
  let b = Inject.create ~seed:11 ~rate:0.4 ~max_failures:3 () in
  List.iter
    (fun key ->
      Alcotest.(check int)
        ("same plan for " ^ key)
        (Inject.failures_planned a ~key)
        (Inject.failures_planned b ~key))
    keys;
  (* The plan is a prefix: once an attempt succeeds, all later ones do. *)
  List.iter
    (fun key ->
      let n = Inject.failures_planned a ~key in
      Alcotest.(check bool) "bounded" true (n >= 0 && n <= 3);
      for attempt = 0 to 5 do
        Alcotest.(check bool) "prefix" (attempt < n)
          (Inject.should_fail a ~key ~attempt)
      done)
    keys;
  let some_fail = List.exists (fun key -> Inject.failures_planned a ~key > 0) keys in
  let some_pass = List.exists (fun key -> Inject.failures_planned a ~key = 0) keys in
  Alcotest.(check bool) "rate 0.4 fails some" true some_fail;
  Alcotest.(check bool) "rate 0.4 passes some" true some_pass

let test_inject_rate_extremes () =
  let zero = Inject.create ~rate:0.0 () in
  let one = Inject.create ~rate:1.0 ~max_failures:2 () in
  let keys = List.init 32 (fun i -> string_of_int i) in
  List.iter
    (fun key ->
      Alcotest.(check int) "rate 0 never fails" 0 (Inject.failures_planned zero ~key);
      let n = Inject.failures_planned one ~key in
      Alcotest.(check bool) "rate 1 always fails" true (n >= 1 && n <= 2))
    keys;
  Alcotest.(check bool) "none inactive" false (Inject.active Inject.none);
  Alcotest.(check bool) "zero-rate inactive" false (Inject.active zero);
  Alcotest.(check bool) "active" true (Inject.active one);
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Inject.create: rate must be in [0, 1]") (fun () ->
      ignore (Inject.create ~rate:1.5 ()))

(* --- Search under faults --------------------------------------------------- *)

let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kd = Var.primary "Kd"
let sz = Size.of_var

let matmul_valuations =
  [
    Valuation.of_list [ (m, 8); (nd_, 8); (kd, 8) ];
    Valuation.of_list [ (m, 16); (nd_, 4); (kd, 8) ];
  ]

let matmul_cfg ?(max_prims = 4) () =
  let base =
    Enumerate.default_config ~output_shape:[ sz m; sz nd_ ] ~desired_shape:[ sz m; sz kd ]
      ~valuations:matmul_valuations ()
  in
  { base with Enumerate.max_prims; reduce_candidates = [ sz kd ] }

let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations)
let config = Mcts.default_config ~iterations:120 ()
let top r = List.map (fun (x : Mcts.result) -> (Graph.operator_signature x.operator, x.reward)) r

let api_clean = lazy (Bench_inputs.(top (conv_search ())))

let injected_recorded (stats : Mcts.failure_stats) =
  Option.value ~default:0 (List.assoc_opt "injected" stats.Mcts.failed_attempts)

let test_injected_search_matches_fault_free () =
  let clean = (Mcts.search_run ~config (matmul_cfg ()) ~reward
                 ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results in
  Alcotest.(check bool) "baseline finds operators" true (clean <> []);
  (* max_failures <= retries, so every candidate recovers and the run
     must reproduce the fault-free results exactly. *)
  let inject = Inject.create ~seed:5 ~rate:0.6 ~max_failures:2 () in
  let faulted =
    Mcts.search_run ~config ~guard:(Guard.policy ~retries:2 ()) ~inject (matmul_cfg ())
      ~reward ~rng:(Nd.Rng.create ~seed:7) ()
  in
  Alcotest.(check bool) "same top-K" true (top clean = top faulted.Mcts.results);
  Alcotest.(check bool) "nothing quarantined" true
    (faulted.Mcts.stats.Mcts.quarantined = 0);
  (* Every injected fault shows up in the failure accounting. *)
  Alcotest.(check bool) "some faults were delivered" true (Inject.injected_count inject > 0);
  Alcotest.(check int) "all faults accounted" (Inject.injected_count inject)
    (injected_recorded faulted.Mcts.stats);
  Alcotest.(check int) "retries = extra attempts"
    (faulted.Mcts.stats.Mcts.attempts - faulted.Mcts.stats.Mcts.evaluations)
    faulted.Mcts.stats.Mcts.retries;
  (* The same through the Api, on the robust bench's search. *)
  let inject = Inject.create ~seed:7 ~rate:0.25 ~max_failures:2 () in
  let faulted = Bench_inputs.conv_search ~guard:(Guard.policy ~retries:3 ()) ~inject () in
  Alcotest.(check bool) "conv search: same top-K" true
    (Lazy.force api_clean = Bench_inputs.top faulted);
  Alcotest.(check int) "conv search: all faults accounted" (Inject.injected_count inject)
    (injected_recorded faulted.Syno.Api.failures)

let test_persistent_faults_quarantine () =
  (* retries = 0 and every key fails at least once: every candidate is
     quarantined at the penalty reward and no evaluation succeeds. *)
  let inject = Inject.create ~seed:1 ~rate:1.0 ~max_failures:1 () in
  let r =
    Mcts.search_run ~config ~guard:(Guard.policy ~retries:0 ()) ~inject
      ~quarantine_reward:(-1.0) (matmul_cfg ()) ~reward ~rng:(Nd.Rng.create ~seed:7) ()
  in
  Alcotest.(check bool) "found candidates" true (r.Mcts.results <> []);
  List.iter
    (fun (x : Mcts.result) ->
      Alcotest.(check bool) "quarantined" true x.Mcts.quarantined;
      Alcotest.(check (float 0.0)) "penalty reward" (-1.0) x.Mcts.reward)
    r.Mcts.results;
  Alcotest.(check int) "no successful evaluations" 0 r.Mcts.stats.Mcts.evaluations;
  Alcotest.(check int) "all quarantined" (List.length r.Mcts.results)
    r.Mcts.stats.Mcts.quarantined

let test_quarantined_rank_last_and_nan_safe () =
  (* Partial quarantine with a NaN penalty: the sort must put every
     quarantined candidate after every healthy one and stay total (NaN
     must not poison the comparator). *)
  let inject = Inject.create ~seed:2 ~rate:0.5 ~max_failures:3 () in
  let r =
    Mcts.search_run ~config ~guard:(Guard.policy ~retries:0 ()) ~inject
      ~quarantine_reward:Float.nan (matmul_cfg ()) ~reward ~rng:(Nd.Rng.create ~seed:7) ()
  in
  let results = r.Mcts.results in
  Alcotest.(check bool) "mixed verdicts" true
    (List.exists (fun (x : Mcts.result) -> x.Mcts.quarantined) results
    && List.exists (fun (x : Mcts.result) -> not x.Mcts.quarantined) results);
  (* healthy prefix, quarantined suffix *)
  let rec check_order seen_quarantined = function
    | [] -> ()
    | (x : Mcts.result) :: rest ->
        if seen_quarantined then
          Alcotest.(check bool) "no healthy after quarantined" true x.Mcts.quarantined;
        check_order (seen_quarantined || x.Mcts.quarantined) rest
  in
  check_order false results;
  (* the healthy prefix is still sorted by decreasing reward *)
  let healthy = List.filter (fun (x : Mcts.result) -> not x.Mcts.quarantined) results in
  let rec decreasing = function
    | (a : Mcts.result) :: (b : Mcts.result) :: rest ->
        Alcotest.(check bool) "rewards decreasing" true (a.Mcts.reward >= b.Mcts.reward);
        decreasing (b :: rest)
    | _ -> ()
  in
  decreasing healthy

let test_parallel_search_under_faults () =
  (* Three root-parallel trees of 120 iterations each. *)
  let config = { config with Mcts.iterations = 3 * config.Mcts.iterations } in
  let rng () = Nd.Rng.create ~seed:21 in
  Par.Pool.with_pool ~domains:3 (fun pool ->
      let clean = (Mcts.search_run ~config ~pool (matmul_cfg ()) ~reward
                     ~rng:(rng ()) ()).Mcts.results in
      Alcotest.(check bool) "parallel baseline finds operators" true (clean <> []);
      let inject = Inject.create ~seed:9 ~rate:0.5 ~max_failures:2 () in
      let faulted =
        Mcts.search_run ~config ~pool ~guard:(Guard.policy ~retries:2 ()) ~inject
          (matmul_cfg ()) ~reward ~rng:(rng ()) ()
      in
      Alcotest.(check bool) "same top-K under faults" true
        (top clean = top faulted.Mcts.results);
      let recorded =
        Option.value ~default:0
          (List.assoc_opt "injected" faulted.Mcts.stats.Mcts.failed_attempts)
      in
      Alcotest.(check int) "all faults accounted" (Inject.injected_count inject) recorded;
      (* The first call for each signature fails, whichever tree makes
         it, and without retries that tree quarantines it; a second tree
         meeting the signature scores it healthy.  So a merged entry is
         quarantined exactly when one call was made for it, and a
         healthy verdict from any tree overrides a quarantine, even one
         whose penalty outscores it. *)
      let calls = Hashtbl.create 64 and lock = Mutex.create () in
      let fails_first ~cancel op =
        let key = Graph.operator_signature op in
        let n =
          Mutex.protect lock (fun () ->
              let n = 1 + Option.value ~default:0 (Hashtbl.find_opt calls key) in
              Hashtbl.replace calls key n;
              n)
        in
        if n = 1 then failwith "first call" else reward ~cancel op
      in
      let merged =
        (Mcts.search_run ~config ~pool ~guard:(Guard.policy ~retries:0 ()) ~quarantine_reward:2.0
          (matmul_cfg ()) ~reward:fails_first ~rng:(rng ()) ()).Mcts.results
      in
      Alcotest.(check bool) "some candidates quarantined" true
        (List.exists (fun (x : Mcts.result) -> x.Mcts.quarantined) merged);
      List.iter
        (fun (x : Mcts.result) ->
          let key = Graph.operator_signature x.Mcts.operator in
          Alcotest.(check bool)
            (key ^ ": quarantined iff only one tree scored it")
            (Hashtbl.find calls key = 1) x.Mcts.quarantined;
          if not x.Mcts.quarantined then
            Alcotest.(check (float 0.0)) "healthy reward"
              (Reward.score x.Mcts.operator (List.hd matmul_valuations))
              x.Mcts.reward)
        merged)

(* --- Checkpointing --------------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "syno_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let ops =
        List.map
          (fun (x : Mcts.result) -> x.Mcts.operator)
          ((Mcts.search_run ~config (matmul_cfg ()) ~reward
              ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results)
      in
      Alcotest.(check bool) "have operators" true (List.length ops >= 2);
      let entries =
        List.mapi
          (fun i op ->
            {
              Checkpoint.signature = Graph.operator_signature op;
              operator = op;
              (* awkward rewards: inexact decimals, zero, a quarantined NaN *)
              reward = (if i = 0 then Float.nan else 0.1 +. (float_of_int i /. 3.0));
              visits = (i * 7) + 1;
              quarantined = i = 0;
              reason = (if i = 0 then Some "eval_error" else None);
            })
          ops
      in
      Checkpoint.save ~path entries;
      match Checkpoint.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
          Alcotest.(check int) "entry count" (List.length entries) (List.length loaded);
          let by_sig l =
            List.sort (fun a b -> compare a.Checkpoint.signature b.Checkpoint.signature) l
          in
          List.iter2
            (fun (a : Checkpoint.entry) (b : Checkpoint.entry) ->
              Alcotest.(check string) "signature" a.Checkpoint.signature b.Checkpoint.signature;
              Alcotest.(check string) "operator rebuilt" a.Checkpoint.signature
                (Graph.operator_signature b.Checkpoint.operator);
              (* bit-exact round-trip for finite rewards; NaN keeps its
                 NaN-ness (the payload is not preserved by %h) *)
              if Float.is_nan a.Checkpoint.reward then
                Alcotest.(check bool) "nan stays nan" true (Float.is_nan b.Checkpoint.reward)
              else
                Alcotest.(check int64) "reward bits"
                  (Int64.bits_of_float a.Checkpoint.reward)
                  (Int64.bits_of_float b.Checkpoint.reward);
              Alcotest.(check int) "visits" a.Checkpoint.visits b.Checkpoint.visits;
              Alcotest.(check bool) "quarantined" a.Checkpoint.quarantined
                b.Checkpoint.quarantined;
              Alcotest.(check (option string)) "reason" a.Checkpoint.reason b.Checkpoint.reason)
            (by_sig entries) (by_sig loaded))

(* Every catalog operator — including the strided one, which the
   strict parser refuses — survives a checkpoint round trip carrying
   quarantine/rejection metadata. *)
let test_checkpoint_zoo_metadata_roundtrip () =
  with_temp (fun path ->
      let reasons =
        [ Some "static_violation"; Some "over_budget"; Some "backend_mismatch"; None ]
      in
      (* Metadata is keyed off the signature: distinct catalog entries
         can canonicalize to the same operator, and the loader keys
         entries by signature too. *)
      let seen = Hashtbl.create 16 in
      let entries =
        List.filter_map
          (fun (e : Syno.Zoo.entry) ->
            let signature = Graph.operator_signature e.Syno.Zoo.operator in
            if Hashtbl.mem seen signature then None
            else begin
              Hashtbl.add seen signature ();
              let h = Hashtbl.hash signature in
              let reason = List.nth reasons (h mod List.length reasons) in
              Some
                {
                  Checkpoint.signature;
                  operator = e.Syno.Zoo.operator;
                  reward = float_of_int (h mod 13) /. 7.0;
                  visits = (h mod 5) + 1;
                  quarantined = reason <> None;
                  reason;
                }
            end)
          Syno.Zoo.all
      in
      Checkpoint.save ~path entries;
      match Checkpoint.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
          let by_sig l =
            List.sort (fun a b -> compare a.Checkpoint.signature b.Checkpoint.signature) l
          in
          List.iter2
            (fun (a : Checkpoint.entry) (b : Checkpoint.entry) ->
              Alcotest.(check string) "signature" a.Checkpoint.signature b.Checkpoint.signature;
              Alcotest.(check string) "operator rebuilt" a.Checkpoint.signature
                (Graph.operator_signature b.Checkpoint.operator);
              Alcotest.(check (option string)) "reason" a.Checkpoint.reason b.Checkpoint.reason;
              Alcotest.(check bool) "quarantined" a.Checkpoint.quarantined
                b.Checkpoint.quarantined;
              Alcotest.(check int) "visits" a.Checkpoint.visits b.Checkpoint.visits)
            (by_sig entries) (by_sig loaded))

(* Snapshots written before the [reason] field existed still load. *)
let test_checkpoint_legacy_header () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc
        "syno-checkpoint v1\nentries: 1\nentry: reward 0x1p-1 visits 3 quarantined false\n\
         syno-operator v1\noutput: M Nd\ninput: M Kd\ntrace: Reduce(Kd); Share(2,new); \
         Match(1)\n";
      close_out oc;
      match Checkpoint.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok [ e ] ->
          Alcotest.(check (option string)) "no reason" None e.Checkpoint.reason;
          Alcotest.(check int) "visits" 3 e.Checkpoint.visits
      | Ok l -> Alcotest.failf "expected 1 entry, got %d" (List.length l))

let test_checkpoint_load_errors () =
  (match Checkpoint.load ~path:"/nonexistent/syno.ckpt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file");
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      match Checkpoint.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected error for garbage file")

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_checkpoint_typed_errors () =
  (match Checkpoint.load_result ~path:"/nonexistent/syno.ckpt" with
  | Error (Checkpoint.Io _) -> ()
  | _ -> Alcotest.fail "missing file must be Io");
  with_temp (fun path ->
      write_file path "";
      (match Checkpoint.load_result ~path with
      | Error (Checkpoint.Corrupt _) -> ()
      | _ -> Alcotest.fail "empty file must be Corrupt");
      write_file path "not a checkpoint\nentry: reward 0x1p0 visits 1 quarantined false\n";
      (match Checkpoint.load_result ~path with
      | Error (Checkpoint.Bad_header line) ->
          Alcotest.(check string) "offending line" "not a checkpoint" line
      | _ -> Alcotest.fail "wrong first line must be Bad_header");
      (* Every typed error has a one-line human rendering. *)
      List.iter
        (fun e -> Alcotest.(check bool) "message" true (String.length (Checkpoint.string_of_error e) > 0))
        [
          Checkpoint.Io "x";
          Checkpoint.Bad_header "y";
          Checkpoint.Truncated { expected = 3; found = 2 };
          Checkpoint.Corrupt "z";
        ])

let test_checkpoint_truncated () =
  with_temp (fun path ->
      let ops =
        List.map
          (fun (x : Mcts.result) -> x.Mcts.operator)
          ((Mcts.search_run ~config (matmul_cfg ()) ~reward
              ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results)
      in
      Alcotest.(check bool) "have operators" true (List.length ops >= 2);
      let entries =
        List.map
          (fun op ->
            {
              Checkpoint.signature = Graph.operator_signature op;
              operator = op;
              reward = 0.5;
              visits = 1;
              quarantined = false;
              reason = None;
            })
          ops
      in
      Checkpoint.save ~path entries;
      (* Cut the file at the last entry header, simulating damage after
         the atomic write: the declared count no longer matches. *)
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let last_entry =
        let rec find from acc =
          match String.index_from_opt text from 'e' with
          | None -> acc
          | Some i ->
              let acc =
                if i + 6 <= String.length text && String.sub text i 6 = "entry:" then Some i
                else acc
              in
              find (i + 1) acc
        in
        match find 0 None with Some i -> i | None -> Alcotest.fail "no entry header"
      in
      write_file path (String.sub text 0 last_entry);
      (match Checkpoint.load_result ~path with
      | Error (Checkpoint.Truncated { expected; found }) ->
          Alcotest.(check int) "declared" (List.length entries) expected;
          Alcotest.(check int) "found" (List.length entries - 1) found
      | Error e -> Alcotest.failf "wrong error: %s" (Checkpoint.string_of_error e)
      | Ok _ -> Alcotest.fail "truncated checkpoint must be refused");
      (* The string-typed compatibility loader refuses it too. *)
      match Checkpoint.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "load must agree with load_result")

let test_sink_cadence () =
  with_temp (fun path ->
      let ops =
        List.map
          (fun (x : Mcts.result) -> x.Mcts.operator)
          ((Mcts.search_run ~config (matmul_cfg ()) ~reward
              ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results)
      in
      let entry op =
        {
          Checkpoint.signature = Graph.operator_signature op;
          operator = op;
          reward = 0.5;
          visits = 1;
          quarantined = false;
          reason = None;
        }
      in
      let sink = Checkpoint.sink ~path ~every:2 () in
      List.iter (fun op -> Checkpoint.note sink (entry op)) ops;
      Checkpoint.flush sink;
      Alcotest.(check bool) "wrote at cadence" true (Checkpoint.writes sink >= 1);
      match Checkpoint.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
          Alcotest.(check int) "all entries on disk" (List.length ops) (List.length loaded))

(* An uninterrupted search, the same search cancelled ("SIGINT") after
   [trip_after] reward evaluations with a sink flushing every [every],
   and a search resumed from what the sink flushed: (uninterrupted,
   partial, flushed entries, resumed).  A cancelled search must return
   its partial results, not raise. *)
let cancel_and_resume ~config cfg ~reward ~seed ~trip_after ~every =
  with_temp (fun path ->
      let run ?checkpoint ?cancel ?resume reward =
        (Mcts.search_run ~config ?checkpoint ?cancel ?resume cfg ~reward
           ~rng:(Nd.Rng.create ~seed) ()).Mcts.results
      in
      let root = Cancel.create () in
      let evals = ref 0 in
      let tripping ~cancel op =
        incr evals;
        if !evals >= trip_after then Cancel.cancel ~reason:"test SIGINT" root;
        reward ~cancel op
      in
      let partial = run ~checkpoint:(Checkpoint.sink ~path ~every ()) ~cancel:root tripping in
      let entries =
        match Checkpoint.load ~path with Ok e -> e | Error msg -> Alcotest.fail msg
      in
      let clean = run reward in
      (clean, partial, entries, run ~resume:entries reward))

let test_cancelled_search_partial_and_resume () =
  let clean, partial, entries, resumed =
    cancel_and_resume ~config (matmul_cfg ()) ~reward ~seed:7 ~trip_after:3 ~every:2
  in
  Alcotest.(check bool) "baseline finds operators" true (clean <> []);
  Alcotest.(check bool) "partial results returned" true (partial <> []);
  Alcotest.(check bool)
    (Printf.sprintf "stopped early (%d < %d distinct)" (List.length partial)
       (List.length clean))
    true
    (List.length partial < List.length clean);
  (* The flushed checkpoint resumes to the uninterrupted results. *)
  Alcotest.(check bool) "flushed checkpoint has entries" true (entries <> []);
  Alcotest.(check bool) "resumed replays to identical top-K" true (top clean = top resumed);
  (* The cancel bench's search. *)
  let clean, partial, entries, resumed =
    cancel_and_resume
      ~config:(Mcts.default_config ~iterations:Bench_inputs.search_iterations ())
      (Bench_inputs.conv_space ~max_prims:(if Bench_inputs.full then 6 else 5))
      ~reward:Bench_inputs.conv_reward ~seed:17
      ~trip_after:(if Bench_inputs.full then 8 else 5)
      ~every:5
  in
  Alcotest.(check bool) "conv search: partial results returned" true (partial <> []);
  Alcotest.(check bool) "conv search: flushed checkpoint has entries" true (entries <> []);
  Alcotest.(check bool) "conv search: resumed replays to identical top-K" true
    (top clean = top resumed)

let test_kill_resume_equivalence () =
  with_temp (fun path ->
      (* Uninterrupted baseline, counting reward calls. *)
      let calls = ref 0 in
      let counting ~cancel op =
        incr calls;
        reward ~cancel op
      in
      let clean =
        (Mcts.search_run ~config (matmul_cfg ()) ~reward:counting
           ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results
      in
      let clean_calls = !calls in
      Alcotest.(check bool) "baseline finds operators" true (clean <> []);
      (* "Kill": run only a third of the iterations, checkpointing. *)
      let truncated = Mcts.default_config ~iterations:(config.Mcts.iterations / 3) () in
      let sink = Checkpoint.sink ~path ~every:2 () in
      let (_ : Mcts.result list) =
        (Mcts.search_run ~config:truncated ~checkpoint:sink (matmul_cfg ()) ~reward
          ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results
      in
      let entries =
        match Checkpoint.load ~path with Ok e -> e | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check bool) "snapshot has entries" true (entries <> []);
      (* Resume: same seed, full iteration budget, preloaded memo. *)
      calls := 0;
      let resumed =
        (Mcts.search_run ~config ~resume:entries (matmul_cfg ()) ~reward:counting
          ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results
      in
      Alcotest.(check bool) "resumed top-K identical" true (top clean = top resumed);
      Alcotest.(check bool)
        (Printf.sprintf "fewer fresh evaluations (%d < %d)" !calls clean_calls)
        true (!calls < clean_calls));
  (* The same through the Api, on the robust bench's search: killed after
     a third of its budget, then resumed from the checkpoint file. *)
  with_temp (fun path ->
      let (_ : Syno.Api.search_run) =
        Bench_inputs.conv_search ~iterations:(Bench_inputs.search_iterations / 3)
          ~checkpoint:path ~checkpoint_every:5 ()
      in
      Alcotest.(check bool) "conv search: resumed top-K identical" true
        (Lazy.force api_clean = Bench_inputs.(top (conv_search ~resume:path ()))))

let () =
  Alcotest.run ~argv:Bench_inputs.argv "robust"
    [
      ( "cancel",
        [
          Alcotest.test_case "explicit cancel" `Quick test_cancel_explicit;
          Alcotest.test_case "deadline (fake clock)" `Quick test_cancel_deadline_fake_clock;
          Alcotest.test_case "child inherits parent" `Quick test_cancel_child_inherits_parent;
          Alcotest.test_case "first reason wins" `Quick test_cancel_first_reason_wins;
          Alcotest.test_case "already-expired deadline" `Quick
            test_cancel_already_expired_deadline;
          Alcotest.test_case "parent cancelled between accept and dispatch" `Quick
            test_cancel_parent_between_accept_and_dispatch;
          Alcotest.test_case "child deadline later than parent's" `Quick
            test_cancel_child_deadline_after_parents;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "reproducible, seed- and key-sensitive" `Quick
            test_jitter_reproducible;
          Alcotest.test_case "bounded by half-width and max_backoff" `Quick
            test_jitter_bounds;
          Alcotest.test_case "jitter=0 is the legacy schedule" `Quick
            test_jitter_zero_is_legacy_schedule;
          Alcotest.test_case "out-of-range jitter rejected" `Quick test_jitter_validation;
          Alcotest.test_case "run sleeps the keyed schedule" `Quick
            test_jitter_run_sleeps_keyed_schedule;
        ] );
      ( "guard",
        [
          Alcotest.test_case "success passthrough" `Quick test_guard_success_passthrough;
          Alcotest.test_case "retry + backoff schedule" `Quick
            test_guard_retry_backoff_schedule;
          Alcotest.test_case "exhausts retries" `Quick test_guard_exhausts_retries;
          Alcotest.test_case "non-finite rewards" `Quick test_guard_non_finite;
          Alcotest.test_case "timeout" `Quick test_guard_timeout;
          Alcotest.test_case "preemptive deadline" `Quick test_guard_preemptive_deadline;
          Alcotest.test_case "post-budget exception is timeout" `Quick
            test_guard_exception_after_budget_is_timeout;
          Alcotest.test_case "external cancel re-raises" `Quick
            test_guard_external_cancel_reraises;
          Alcotest.test_case "injected faults" `Quick test_guard_injected;
        ] );
      ( "inject",
        [
          Alcotest.test_case "deterministic plans" `Quick test_inject_deterministic;
          Alcotest.test_case "rate extremes" `Quick test_inject_rate_extremes;
        ] );
      ( "search",
        [
          Alcotest.test_case "injected = fault-free" `Quick
            test_injected_search_matches_fault_free;
          Alcotest.test_case "persistent faults quarantine" `Quick
            test_persistent_faults_quarantine;
          Alcotest.test_case "quarantined rank last, NaN-safe" `Quick
            test_quarantined_rank_last_and_nan_safe;
          Alcotest.test_case "parallel under faults" `Quick
            test_parallel_search_under_faults;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "zoo metadata roundtrip" `Quick
            test_checkpoint_zoo_metadata_roundtrip;
          Alcotest.test_case "legacy header (no reason)" `Quick test_checkpoint_legacy_header;
          Alcotest.test_case "load errors" `Quick test_checkpoint_load_errors;
          Alcotest.test_case "typed errors" `Quick test_checkpoint_typed_errors;
          Alcotest.test_case "truncation detected" `Quick test_checkpoint_truncated;
          Alcotest.test_case "sink cadence" `Quick test_sink_cadence;
          Alcotest.test_case "cancelled search: partial + resume" `Quick
            test_cancelled_search_partial_and_resume;
          Alcotest.test_case "kill/resume equivalence" `Quick test_kill_resume_equivalence;
        ] );
    ]

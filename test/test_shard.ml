(* Tests for the sharded multi-process search: partitioning
   (Search.Shard), checkpoint merging with quarantine-wins conflicts,
   the crash-tolerant coordinator (Search.Coordinator), per-shard fault
   injection derivation (Robust.Inject.split), the Checkpoint.preload
   resume fix, and the end-to-end determinism guarantee at the API
   level. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Enumerate = Search.Enumerate
module Mcts = Search.Mcts
module Shard = Search.Shard
module Coordinator = Search.Coordinator
module Checkpoint = Search.Checkpoint
module Cancel = Robust.Cancel
module Durable = Robust.Durable
module Inject = Robust.Inject
module Zoo = Syno.Zoo
module Api = Syno.Api

let op1 = Zoo.conv2d.Zoo.operator
let op2 = Zoo.depthwise_conv.Zoo.operator

let entry ?(quarantined = false) ?reason ~reward ~visits op =
  {
    Checkpoint.signature = Graph.operator_signature op;
    operator = op;
    reward;
    visits;
    quarantined;
    reason;
  }

let with_tmp_base f =
  let base = Filename.temp_file "syno_test_shard" ".ckpt" in
  Sys.remove base;
  let cleanup () =
    for i = 0 to 7 do
      let p = Durable.shard_path ~base ~shard_id:i in
      if Sys.file_exists p then Sys.remove p
    done;
    if Sys.file_exists base then Sys.remove base
  in
  Fun.protect ~finally:cleanup (fun () -> f base)

(* --- Partitioning ---------------------------------------------------------- *)

let test_owner_partition () =
  let shards = 3 in
  let keys = List.init 60 (Printf.sprintf "root-action-%d") in
  List.iter
    (fun key ->
      let o = Shard.owner ~seed:42 ~shards key in
      Alcotest.(check bool) "in range" true (o >= 0 && o < shards);
      Alcotest.(check int) "deterministic" o (Shard.owner ~seed:42 ~shards key))
    keys;
  let covered = List.sort_uniq compare (List.map (Shard.owner ~seed:42 ~shards) keys) in
  Alcotest.(check int) "every shard owns some keys" shards (List.length covered);
  Alcotest.(check bool) "partition depends on the seed" true
    (List.exists (fun k -> Shard.owner ~seed:1 ~shards k <> Shard.owner ~seed:2 ~shards k) keys)

let test_derive_seed () =
  let s0 = Shard.derive_seed ~seed:2024 ~shard_id:0 in
  let s1 = Shard.derive_seed ~seed:2024 ~shard_id:1 in
  Alcotest.(check int) "deterministic" s0 (Shard.derive_seed ~seed:2024 ~shard_id:0);
  Alcotest.(check bool) "distinct per shard" true (s0 <> s1);
  Alcotest.(check bool) "distinct per run seed" true
    (s0 <> Shard.derive_seed ~seed:2025 ~shard_id:0);
  Alcotest.(check bool) "non-negative" true (s0 >= 0 && s1 >= 0)

(* Every root action of a real enumeration must be owned by exactly one
   shard's filter, so the shards cover the space without overlap. *)
let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kd = Var.primary "Kd"
let sz = Size.of_var

let matmul_cfg ?(max_prims = 4) () =
  let valuations =
    [
      Valuation.of_list [ (m, 8); (nd_, 8); (kd, 8) ];
      Valuation.of_list [ (m, 16); (nd_, 4); (kd, 8) ];
    ]
  in
  let base =
    Enumerate.default_config ~output_shape:[ sz m; sz nd_ ] ~desired_shape:[ sz m; sz kd ]
      ~valuations ()
  in
  { base with Enumerate.max_prims; reduce_candidates = [ sz kd ] }

let test_root_filter_exact_cover () =
  let shards = 3 and seed = 7 in
  let assignments =
    List.init shards (fun i -> Shard.make ~base:"b" ~seed ~shards ~shard_id:i)
  in
  let cfg = matmul_cfg () in
  let roots = List.map fst (Enumerate.children cfg (Graph.init [ sz m; sz nd_ ])) in
  Alcotest.(check bool) "has root actions" true (roots <> []);
  List.iter
    (fun prim ->
      let owners = List.filter (fun a -> Shard.root_filter a prim) assignments in
      Alcotest.(check int) "exactly one owner" 1 (List.length owners))
    roots

let test_mcts_root_filter () =
  let cfg = matmul_cfg () in
  let config = Mcts.default_config ~iterations:50 () in
  let reward ~cancel:_ _ = 0.5 in
  let none =
    (Mcts.search_run ~config ~root_filter:(fun _ -> false) cfg ~reward
      ~rng:(Nd.Rng.create ~seed:3) ()).Mcts.results
  in
  Alcotest.(check int) "empty root partition finds nothing" 0 (List.length none);
  let all =
    (Mcts.search_run ~config ~root_filter:(fun _ -> true) cfg ~reward
      ~rng:(Nd.Rng.create ~seed:3) ()).Mcts.results
  in
  let plain =
    (Mcts.search_run ~config cfg ~reward ~rng:(Nd.Rng.create ~seed:3) ()).Mcts.results
  in
  Alcotest.(check int) "accept-all filter is the unfiltered search" (List.length plain)
    (List.length all)

(* --- Inject.split ---------------------------------------------------------- *)

let test_inject_split () =
  let t = Inject.create ~seed:9 ~rate:0.5 ~max_failures:2 () in
  let a = Inject.split t ~index:3 in
  let b = Inject.split t ~index:3 in
  Alcotest.(check int) "same index, same derived seed" (Inject.seed a) (Inject.seed b);
  let c = Inject.split t ~index:4 in
  Alcotest.(check bool) "distinct index, distinct seed" true (Inject.seed a <> Inject.seed c);
  Alcotest.(check bool) "derived differs from parent" true (Inject.seed a <> Inject.seed t);
  (* Same derived seed means the same fault schedule... *)
  let keys = List.init 40 (Printf.sprintf "sig-%d") in
  List.iter
    (fun key ->
      Alcotest.(check int)
        ("schedule " ^ key)
        (Inject.failures_planned a ~key)
        (Inject.failures_planned b ~key))
    keys;
  (* ...and distinct shards do not replay one identical stream. *)
  Alcotest.(check bool) "schedules diverge across shards" true
    (List.exists
       (fun key -> Inject.failures_planned a ~key <> Inject.failures_planned c ~key)
       keys);
  (* Disabled injectors split to themselves and counters start fresh. *)
  Alcotest.(check int) "none splits to none" (Inject.seed Inject.none)
    (Inject.seed (Inject.split Inject.none ~index:5));
  Alcotest.(check int) "fresh fault counter" 0 (Inject.injected_count a);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Inject.split: index must be >= 0") (fun () ->
      ignore (Inject.split t ~index:(-1)))

(* --- Merge semantics ------------------------------------------------------- *)

(* The merged memo with its conflict count: entries in minus entries out. *)
let merge lists =
  let merged = Shard.merge_entries lists in
  (merged, List.length (List.concat lists) - List.length merged)

(* Two operators can share a signature and still score differently:
   the merged entry is the winner whole, its operator next to its
   reward, whichever shard found it. *)
let test_merge_clean_conflict () =
  let signature = Graph.operator_signature op1 in
  let a = entry ~reward:0.3 ~visits:2 op1 in
  let b = { (entry ~reward:0.7 ~visits:3 op2) with Checkpoint.signature } in
  List.iter
    (fun lists ->
      let merged, conflicts = merge lists in
      Alcotest.(check int) "one conflict" 1 conflicts;
      match merged with
      | [ e ] ->
          Alcotest.(check (float 0.0)) "best reward wins" 0.7 e.Checkpoint.reward;
          Alcotest.(check bool) "winner's operator kept" true (e.Checkpoint.operator == op2);
          Alcotest.(check int) "visits summed" 5 e.Checkpoint.visits;
          Alcotest.(check bool) "stays clean" false e.Checkpoint.quarantined
      | es -> Alcotest.failf "expected 1 merged entry, got %d" (List.length es))
    [ [ [ a ]; [ b ] ]; [ [ b ]; [ a ] ] ]

let test_merge_quarantine_wins () =
  let q = entry ~quarantined:true ~reason:"static_violation" ~reward:(-1.0) ~visits:1 op1 in
  let c = entry ~reward:0.9 ~visits:2 op1 in
  List.iter
    (fun lists ->
      match merge lists with
      | [ e ], 1 ->
          Alcotest.(check bool) "quarantine survives the merge" true e.Checkpoint.quarantined;
          Alcotest.(check (float 0.0)) "quarantine reward kept" (-1.0) e.Checkpoint.reward;
          Alcotest.(check (option string)) "reason kept" (Some "static_violation")
            e.Checkpoint.reason;
          Alcotest.(check int) "visits summed" 3 e.Checkpoint.visits
      | es, n -> Alcotest.failf "expected 1 entry 1 conflict, got %d/%d" (List.length es) n)
    [ [ [ q ]; [ c ] ]; [ [ c ]; [ q ] ] ]

let test_merge_nan_safe () =
  let a = entry ~reward:Float.nan ~visits:1 op1 in
  let b = entry ~reward:0.5 ~visits:1 op1 in
  let merged, _ = merge [ [ a ]; [ b ] ] in
  (match merged with
  | [ e ] -> Alcotest.(check (float 0.0)) "NaN never wins" 0.5 e.Checkpoint.reward
  | _ -> Alcotest.fail "expected one entry");
  (* Distinct signatures never conflict. *)
  let merged, conflicts =
    merge [ [ entry ~reward:0.1 ~visits:1 op1 ]; [ entry ~reward:0.2 ~visits:1 op2 ] ]
  in
  Alcotest.(check int) "no conflicts" 0 conflicts;
  Alcotest.(check int) "both kept" 2 (List.length merged)

let test_rank () =
  let q = entry ~quarantined:true ~reward:5.0 ~visits:1 op1 in
  let c = entry ~reward:0.2 ~visits:1 op2 in
  match Shard.rank [ q; c ] with
  | [ first; second ] ->
      Alcotest.(check bool) "clean entry ranks first" false first.Checkpoint.quarantined;
      Alcotest.(check bool) "quarantined last despite reward" true second.Checkpoint.quarantined
  | _ -> Alcotest.fail "expected two entries"

(* --- Damaged shard files --------------------------------------------------- *)

let test_load_and_merge_truncated () =
  with_tmp_base (fun base ->
      let a0 = Shard.make ~base ~seed:1 ~shards:2 ~shard_id:0 in
      let a1 = Shard.make ~base ~seed:1 ~shards:2 ~shard_id:1 in
      Checkpoint.save ~path:a0.Shard.path [ entry ~reward:0.5 ~visits:1 op1 ];
      Checkpoint.save ~path:a1.Shard.path [ entry ~reward:0.25 ~visits:1 op2 ];
      (* A mid-write SIGKILL cannot damage the snapshot (writes are
         atomic), but external truncation after the fact can — the merge
         must quarantine the file and keep going. *)
      let size = (Unix.stat a1.Shard.path).Unix.st_size in
      Unix.truncate a1.Shard.path (size / 2);
      let m = Shard.load_and_merge ~base ~shards:2 in
      Alcotest.(check (list int)) "clean shard loaded" [ 0 ] m.Durable.mg_loaded;
      Alcotest.(check (list int)) "damaged shard quarantined" [ 1 ]
        (List.map fst m.Durable.mg_quarantined);
      Alcotest.(check int) "clean entries survive" 1 (List.length m.Durable.mg_entries);
      Alcotest.(check (list int)) "nothing missing" [] m.Durable.mg_missing)

let test_load_and_merge_missing () =
  with_tmp_base (fun base ->
      let a0 = Shard.make ~base ~seed:1 ~shards:2 ~shard_id:0 in
      Checkpoint.save ~path:a0.Shard.path [ entry ~reward:0.5 ~visits:1 op1 ];
      let m = Shard.load_and_merge ~base ~shards:2 in
      Alcotest.(check (list int)) "missing shard reported" [ 1 ] m.Durable.mg_missing;
      Alcotest.(check (list int)) "no quarantine for missing" []
        (List.map fst m.Durable.mg_quarantined);
      Alcotest.(check int) "merge proceeds" 1 (List.length m.Durable.mg_entries))

(* --- Checkpoint.preload ---------------------------------------------------- *)

(* The resume fix: a resumed run's sink must carry the resumed history
   into every snapshot it writes, or a second kill/resume cycle shrinks
   the memo. *)
let test_checkpoint_preload () =
  with_tmp_base (fun base ->
      let path = Durable.shard_path ~base ~shard_id:0 in
      let sink = Checkpoint.sink ~path ~every:1000 () in
      Checkpoint.preload sink [ entry ~reward:0.5 ~visits:3 op1 ];
      Checkpoint.note sink (entry ~reward:0.25 ~visits:1 op2);
      Checkpoint.flush sink;
      (match Checkpoint.load_result ~path with
      | Ok es -> Alcotest.(check int) "preloaded + noted both persisted" 2 (List.length es)
      | Error e -> Alcotest.fail (Checkpoint.string_of_error e));
      (* A fresh note beats the preloaded entry for the same signature,
         in either call order. *)
      let sink = Checkpoint.sink ~path ~every:1000 () in
      Checkpoint.preload sink [ entry ~reward:0.5 ~visits:3 op1 ];
      Checkpoint.note sink (entry ~reward:0.9 ~visits:5 op1);
      Checkpoint.flush sink;
      (match Checkpoint.load_result ~path with
      | Ok [ e ] -> Alcotest.(check (float 0.0)) "note wins after preload" 0.9 e.Checkpoint.reward
      | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error e -> Alcotest.fail (Checkpoint.string_of_error e));
      let sink = Checkpoint.sink ~path ~every:1000 () in
      Checkpoint.note sink (entry ~reward:0.9 ~visits:5 op1);
      Checkpoint.preload sink [ entry ~reward:0.5 ~visits:3 op1 ];
      Checkpoint.flush sink;
      match Checkpoint.load_result ~path with
      | Ok [ e ] -> Alcotest.(check (float 0.0)) "note wins before preload" 0.9 e.Checkpoint.reward
      | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error e -> Alcotest.fail (Checkpoint.string_of_error e))

(* --- Coordinator ----------------------------------------------------------- *)

let quick_config ?(shards = 2) () =
  { (Coordinator.default_config ~shards ()) with Coordinator.backoff = 0.01 }

let shard_op (a : Shard.assignment) = if a.Shard.shard_id = 0 then op1 else op2

let save_shard (a : Shard.assignment) reward =
  Checkpoint.save ~path:a.Shard.path [ entry ~reward ~visits:1 (shard_op a) ]

let is_done = function Coordinator.Done -> true | _ -> false

(* What the shard files under [base] merge to once the coordinator returns. *)
let merged_entries ?(shards = 2) base =
  (Shard.load_and_merge ~base ~shards).Durable.mg_entries

let test_coordinator_crash_restart () =
  with_tmp_base (fun base ->
      (* Every shard's first forked attempt crashes; the restart resumes
         and succeeds.  ctx.attempt is the only cross-process channel. *)
      let body (ctx : Coordinator.ctx) =
        if ctx.Coordinator.attempt = 0 then failwith "injected crash"
        else save_shard ctx.Coordinator.assignment 0.5
      in
      let r = Coordinator.run ~config:(quick_config ()) ~base ~seed:3 ~body () in
      Alcotest.(check int) "one restart per shard" 2 r.Coordinator.rp_restarts;
      List.iter
        (fun s ->
          Alcotest.(check bool) "shard done" true (is_done s.Coordinator.sh_status);
          Alcotest.(check int) "two attempts" 2 s.Coordinator.sh_attempts)
        r.Coordinator.rp_shards;
      Alcotest.(check int) "both shards merged" 2 (List.length (merged_entries base));
      Alcotest.(check bool) "not interrupted" false r.Coordinator.rp_interrupted)

(* The coordinator opens a heartbeat pipe per forked attempt; across
   crash/restart cycles every descriptor must be reclaimed (parent
   closes the read end on retire, children close sibling read ends, and
   a failed fork closes both).  A leak here is invisible in a single
   run and fatal in a long-lived daemon, so pin the process-wide fd
   count across repeated cycles. *)
let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_coordinator_fd_hygiene () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else
    with_tmp_base (fun base ->
        let body (ctx : Coordinator.ctx) =
          if ctx.Coordinator.attempt = 0 then failwith "injected crash"
          else save_shard ctx.Coordinator.assignment 0.5
        in
        let cycle () =
          let r = Coordinator.run ~config:(quick_config ()) ~base ~seed:3 ~body () in
          List.iter
            (fun s ->
              Alcotest.(check bool) "shard done" true (is_done s.Coordinator.sh_status))
            r.Coordinator.rp_shards
        in
        (* Warm-up cycle first so one-time lazy allocations don't count
           against the comparison. *)
        cycle ();
        let before = count_fds () in
        for _ = 1 to 5 do
          cycle ()
        done;
        Alcotest.(check int) "fd count unchanged after 5 crash/restart cycles" before
          (count_fds ()))

let test_coordinator_heartbeat_kill () =
  with_tmp_base (fun base ->
      (* First attempt hangs without heartbeating; the supervisor must
         SIGKILL it and the restart succeeds. *)
      let body (ctx : Coordinator.ctx) =
        if ctx.Coordinator.attempt = 0 then Unix.sleepf 30.0
        else save_shard ctx.Coordinator.assignment 0.5
      in
      let config =
        { (quick_config ~shards:1 ()) with Coordinator.heartbeat_timeout = 0.3 }
      in
      let t0 = Unix.gettimeofday () in
      let r = Coordinator.run ~config ~base ~seed:3 ~body () in
      Alcotest.(check bool) "killed well before the hang ends" true
        (Unix.gettimeofday () -. t0 < 10.0);
      match r.Coordinator.rp_shards with
      | [ s ] ->
          Alcotest.(check bool) "done after restart" true (is_done s.Coordinator.sh_status);
          Alcotest.(check bool) "supervisor killed it" true (s.Coordinator.sh_kills >= 1);
          Alcotest.(check int) "two attempts" 2 s.Coordinator.sh_attempts
      | _ -> Alcotest.fail "expected one shard")

let test_coordinator_deadline_kill () =
  with_tmp_base (fun base ->
      (* The hung attempt heartbeats, so only the per-shard deadline
         catches it. *)
      let body (ctx : Coordinator.ctx) =
        if ctx.Coordinator.attempt = 0 then
          for _ = 1 to 1000 do
            ctx.Coordinator.beat ();
            Unix.sleepf 0.03
          done
        else save_shard ctx.Coordinator.assignment 0.5
      in
      let config =
        {
          (quick_config ~shards:1 ()) with
          Coordinator.heartbeat_timeout = 30.0;
          shard_deadline = Some 0.3;
        }
      in
      let r = Coordinator.run ~config ~base ~seed:3 ~body () in
      match r.Coordinator.rp_shards with
      | [ s ] ->
          Alcotest.(check bool) "done after restart" true (is_done s.Coordinator.sh_status);
          Alcotest.(check bool) "deadline kill recorded" true (s.Coordinator.sh_kills >= 1)
      | _ -> Alcotest.fail "expected one shard")

let test_coordinator_restart_budget () =
  with_tmp_base (fun base ->
      let body (_ : Coordinator.ctx) = failwith "always crashes" in
      let config = { (quick_config ~shards:1 ()) with Coordinator.max_restarts = 1 } in
      let r = Coordinator.run ~config ~base ~seed:3 ~body () in
      match r.Coordinator.rp_shards with
      | [ s ] ->
          (match s.Coordinator.sh_status with
          | Coordinator.Failed reason ->
              Alcotest.(check string) "worker exception exit code" "exit 70" reason
          | _ -> Alcotest.fail "expected Failed");
          Alcotest.(check int) "budget honoured" 2 s.Coordinator.sh_attempts;
          Alcotest.(check int) "one restart consumed" 1 r.Coordinator.rp_restarts
      | _ -> Alcotest.fail "expected one shard")

let test_coordinator_cancel_cascade () =
  with_tmp_base (fun base ->
      (* Workers loop until cancelled, then flush their checkpoint and
         return; the coordinator's deadline token trips mid-run and the
         SIGTERM cascade must reach every worker. *)
      let body (ctx : Coordinator.ctx) =
        let rec loop n =
          ctx.Coordinator.beat ();
          if Cancel.is_cancelled ctx.Coordinator.cancel then
            save_shard ctx.Coordinator.assignment 0.5
          else if n > 2000 then failwith "cancellation never arrived"
          else begin
            Unix.sleepf 0.02;
            loop (n + 1)
          end
        in
        loop 0
      in
      let cancel = Cancel.with_timeout 0.4 in
      let r = Coordinator.run ~config:(quick_config ()) ~cancel ~base ~seed:3 ~body () in
      Alcotest.(check bool) "run reports interruption" true r.Coordinator.rp_interrupted;
      List.iter
        (fun s ->
          Alcotest.(check bool) "shard interrupted" true
            (s.Coordinator.sh_status = Coordinator.Interrupted))
        r.Coordinator.rp_shards;
      Alcotest.(check int) "both workers flushed before exiting" 2
        (List.length (merged_entries base)))

let test_coordinator_inline_matches_forked () =
  with_tmp_base (fun base ->
      let forked_seen = ref [] in
      let body (ctx : Coordinator.ctx) =
        forked_seen := ctx.Coordinator.forked :: !forked_seen;
        save_shard ctx.Coordinator.assignment
          (0.1 *. float_of_int (ctx.Coordinator.assignment.Shard.shard_id + 1))
      in
      let (_ : Coordinator.report) =
        Coordinator.run_inline ~config:(quick_config ()) ~base ~seed:3 ~body ()
      in
      Alcotest.(check (list bool)) "inline bodies see forked=false" [ false; false ]
        !forked_seen;
      let pick () =
        List.map
          (fun (e : Checkpoint.entry) -> (e.Checkpoint.signature, e.Checkpoint.reward))
          (merged_entries base)
      in
      let inline_entries = pick () in
      let (_ : Coordinator.report) =
        Coordinator.run ~config:(quick_config ()) ~base ~seed:3 ~body ()
      in
      Alcotest.(check bool) "forked merge equals inline merge" true
        (pick () = inline_entries))

(* --- End-to-end API determinism -------------------------------------------- *)

let test_api_sharded_determinism () =
  with_tmp_base (fun base ->
      let clear () =
        for i = 0 to 1 do
          let p = Durable.shard_path ~base ~shard_id:i in
          if Sys.file_exists p then Sys.remove p
        done
      in
      let run ?kill_after ~inline () =
        clear ();
        Api.search_conv_operators_sharded_run ~iterations:240 ~max_prims:6 ~shards:2
          ~backoff:0.01 ?kill_after ~inline ~checkpoint_base:base ~seed:2024
          ~valuations:Api.default_search_valuations ()
      in
      let sigs (r : Api.sharded_run) =
        List.map (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward)) r.Api.sh_candidates
      in
      let inline_r = run ~inline:true () in
      Alcotest.(check bool) "inline run finds operators" true (sigs inline_r <> []);
      let killed = run ~kill_after:1 ~inline:false () in
      Alcotest.(check bool) "workers actually crashed and restarted" true
        (killed.Api.sh_report.Coordinator.rp_restarts >= 1);
      Alcotest.(check bool) "killed+restarted merge equals the inline reference" true
        (sigs killed = sigs inline_r))

(* A damaged main corpus must be quarantined by the sharded merge, not
   overwritten: the original bytes survive in [base ^ ".corrupt"] and
   the merged corpus is written fresh. *)
let test_api_sharded_damaged_corpus () =
  with_tmp_base (fun base ->
      let corpus = base ^ ".corpus" in
      let garbage = "not a corpus\n" in
      Out_channel.with_open_bin corpus (fun oc -> output_string oc garbage);
      let files =
        corpus :: (corpus ^ ".corrupt")
        :: List.init 2 (fun shard_id -> Durable.shard_path ~base:corpus ~shard_id)
      in
      Fun.protect
        ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files)
        (fun () ->
          let (_ : Api.sharded_run) =
            Api.search_conv_operators_sharded_run ~iterations:40 ~max_prims:5 ~shards:2
              ~inline:true ~corpus ~checkpoint_base:base ~seed:7
              ~valuations:Api.default_search_valuations ()
          in
          Alcotest.(check string) "original bytes quarantined" garbage
            (In_channel.with_open_bin (corpus ^ ".corrupt") In_channel.input_all);
          match Validate.Corpus.load_result ~path:corpus with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Validate.Corpus.string_of_error e)))

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "owner covers and is stable" `Quick test_owner_partition;
          Alcotest.test_case "derived seeds" `Quick test_derive_seed;
          Alcotest.test_case "root actions covered exactly once" `Quick
            test_root_filter_exact_cover;
          Alcotest.test_case "mcts root_filter" `Quick test_mcts_root_filter;
        ] );
      ( "inject-split",
        [ Alcotest.test_case "per-shard fault streams" `Quick test_inject_split ] );
      ( "merge",
        [
          Alcotest.test_case "clean conflict takes best" `Quick test_merge_clean_conflict;
          Alcotest.test_case "quarantine wins" `Quick test_merge_quarantine_wins;
          Alcotest.test_case "NaN-safe, distinct kept" `Quick test_merge_nan_safe;
          Alcotest.test_case "ranking" `Quick test_rank;
          Alcotest.test_case "truncated file quarantined" `Quick
            test_load_and_merge_truncated;
          Alcotest.test_case "missing file reported" `Quick test_load_and_merge_missing;
        ] );
      ( "checkpoint-preload",
        [ Alcotest.test_case "resumed history persists" `Quick test_checkpoint_preload ] );
      ( "coordinator",
        [
          Alcotest.test_case "crash restarts and resumes" `Quick
            test_coordinator_crash_restart;
          Alcotest.test_case "fd hygiene across restart cycles" `Quick
            test_coordinator_fd_hygiene;
          Alcotest.test_case "heartbeat silence kills" `Quick test_coordinator_heartbeat_kill;
          Alcotest.test_case "deadline kills" `Quick test_coordinator_deadline_kill;
          Alcotest.test_case "restart budget exhausts to Failed" `Quick
            test_coordinator_restart_budget;
          Alcotest.test_case "cancel cascades and flushes" `Quick
            test_coordinator_cancel_cascade;
          Alcotest.test_case "inline matches forked" `Quick
            test_coordinator_inline_matches_forked;
        ] );
      ( "api",
        [
          Alcotest.test_case "kills + restarts = inline reference" `Quick
            test_api_sharded_determinism;
          Alcotest.test_case "damaged main corpus quarantined" `Quick
            test_api_sharded_damaged_corpus;
        ] );
    ]

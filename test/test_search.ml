(* Tests for guided enumeration, MCTS, and the reward proxy. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Enumerate = Search.Enumerate
module Mcts = Search.Mcts
module Reward = Search.Reward

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

let test_children_are_canonical () =
  let cfg = matmul_cfg () in
  let g = Graph.init [ sz m; sz nd_ ] in
  let kids = Enumerate.children cfg g in
  Alcotest.(check bool) "has children" true (kids <> []);
  (* no duplicate actions *)
  let prims = List.map fst kids in
  Alcotest.(check int) "no duplicates" (List.length prims)
    (List.length (List.sort_uniq Prim.compare prims))

let test_synthesize_finds_matmul () =
  let cfg = matmul_cfg () in
  let stats = Enumerate.make_stats () in
  let ops = Enumerate.synthesize ~max_results:200 ~max_visits:100_000 ~stats cfg in
  Alcotest.(check bool) "found operators" true (ops <> []);
  (* One of them must be exactly matmul: one weight [Kd, Nd] group. *)
  let is_matmul op =
    match op.Graph.op_weights with
    | [ [ a; b ] ] ->
        Size.equal a.Coord.Ast.dom (sz kd) && Size.equal b.Coord.Ast.dom (sz nd_)
    | _ -> false
  in
  Alcotest.(check bool) "matmul among results" true (List.exists is_matmul ops);
  Alcotest.(check bool) "distance pruning fired" true (stats.Enumerate.pruned_by_distance > 0)

let test_synthesized_ops_valid () =
  let cfg = matmul_cfg () in
  let ops = Enumerate.synthesize ~max_results:30 ~max_visits:30_000 cfg in
  List.iter
    (fun op ->
      (* every result must satisfy the completion contract *)
      Alcotest.(check int) "input dims" 2 (List.length op.Graph.op_input_exprs);
      List.iter2
        (fun s d -> Alcotest.(check bool) "shape" true (Size.equal s d))
        op.Graph.op_input_shape [ sz m; sz kd ])
    ops

let test_flops_budget_respected () =
  let cfg = matmul_cfg () in
  let budget = 2 * 8 * 8 * 8 in
  let cfg = { cfg with Enumerate.max_flops = Some budget } in
  let ops = Enumerate.synthesize ~max_results:30 ~max_visits:30_000 cfg in
  List.iter
    (fun op ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "within budget" true
            (Pgraph.Flops.naive_flops op v <= budget))
        matmul_valuations)
    ops

(* --- Random trials: the shape-distance ablation mechanism -------------- *)

let test_random_completion_guided () =
  let cfg = matmul_cfg ~max_prims:4 () in
  let rng = Nd.Rng.create ~seed:11 in
  let successes = ref 0 in
  for _ = 1 to 60 do
    match Enumerate.random_completion cfg rng ~use_distance:true with
    | Some _ -> incr successes
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "guided trials succeed often (%d/60)" !successes)
    true (!successes > 8)

let test_random_completion_unguided_worse () =
  let cfg = matmul_cfg ~max_prims:4 () in
  let rng_g = Nd.Rng.create ~seed:12 in
  let rng_u = Nd.Rng.create ~seed:12 in
  let count use_distance rng =
    let successes = ref 0 in
    for _ = 1 to 60 do
      if Enumerate.random_completion cfg rng ~use_distance <> None then incr successes
    done;
    !successes
  in
  let guided = count true rng_g in
  let unguided = count false rng_u in
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d) > unguided (%d)" guided unguided)
    true (guided > unguided)

(* --- MCTS ---------------------------------------------------------------- *)

let test_mcts_finds_operators () =
  let cfg = matmul_cfg () in
  let rng = Nd.Rng.create ~seed:13 in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let results =
    (Mcts.search_run ~config:(Mcts.default_config ~iterations:120 ()) cfg ~reward
       ~rng ()).Mcts.results
  in
  Alcotest.(check bool) "found some" true (results <> []);
  (* sorted by decreasing reward *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Mcts.reward >= b.Mcts.reward && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted results);
  let best = List.hd results in
  Alcotest.(check bool) "best positive" true (best.Mcts.reward > 0.0)

let test_mcts_rollout_depth_honored () =
  (* Regression: rollout_depth used to be declared but never read, so
     any value produced the same search.  A zero horizon pins rollouts
     to their start state and must find strictly fewer operators than
     the default horizon under the same seed. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let run rollout_depth =
    let base = Mcts.default_config ~iterations:80 () in
    let results =
      (Mcts.search_run
        ~config:{ base with Mcts.rollout_depth }
        cfg ~reward ~rng:(Nd.Rng.create ~seed:21) ()).Mcts.results
    in
    List.map (fun r -> Graph.operator_signature r.Mcts.operator) results
  in
  let shallow = run 0 in
  let deep = run 12 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 0 (%d ops) finds fewer than depth 12 (%d ops)"
       (List.length shallow) (List.length deep))
    true
    (List.length shallow < List.length deep)

let test_mcts_reward_memoized () =
  (* Each distinct operator signature is scored exactly once; duplicate
     encounters only bump the visit counter. *)
  let cfg = matmul_cfg () in
  let calls = ref 0 in
  let reward ~cancel:_ op =
    incr calls;
    Reward.score op (List.hd matmul_valuations)
  in
  let results =
    (Mcts.search_run ~config:(Mcts.default_config ~iterations:150 ()) cfg ~reward
      ~rng:(Nd.Rng.create ~seed:13) ()).Mcts.results
  in
  let revisits = List.fold_left (fun acc r -> acc + r.Mcts.visits) 0 results in
  Alcotest.(check int) "one reward call per distinct operator" (List.length results) !calls;
  Alcotest.(check bool)
    (Printf.sprintf "duplicates occurred (%d visits, %d distinct)" revisits !calls)
    true (revisits > !calls)

let fingerprint rs =
  List.map
    (fun r ->
      ( Graph.operator_signature r.Mcts.operator,
        Int64.bits_of_float r.Mcts.reward,
        r.Mcts.visits,
        r.Mcts.quarantined ))
    rs

(* The par bench's search: the conv space at max_prims 6 from seed 41,
   at its smoke and full budgets. *)
let conv_cfg = Bench_inputs.conv_space ~max_prims:6
let conv_budgets = [ 200; 400 ]

let test_mcts_pool_of_one_is_poolless () =
  (* A pool of size 1 is one tree on the calling domain driven by the
     caller's generator: bit for bit the poolless search, statistics
     included. *)
  let check what cfg ~reward ~iterations seed =
    let config = Mcts.default_config ~iterations () in
    let seq = Mcts.search_run ~config cfg ~reward ~rng:(Nd.Rng.create ~seed) () in
    let pooled =
      Par.Pool.with_pool ~domains:1 (fun pool ->
          Mcts.search_run ~config ~pool cfg ~reward ~rng:(Nd.Rng.create ~seed) ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s seed %d: pool of 1 = no pool" what seed)
      true
      (fingerprint seq.Mcts.results = fingerprint pooled.Mcts.results
      && seq.Mcts.stats = pooled.Mcts.stats)
  in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  List.iter (check "matmul" (matmul_cfg ()) ~reward ~iterations:120) [ 13; 17; 29 ];
  List.iter
    (fun iterations ->
      check
        (Printf.sprintf "conv %d iterations" iterations)
        conv_cfg ~reward:Bench_inputs.conv_reward ~iterations 41)
    conv_budgets

(* The [k] trees a pool of size [k] runs, replayed one after another
   without a pool: tree 0 keeps the generator, trees 1..k-1 split theirs
   off it in order, and tree [i] gets its share of [iterations]. *)
let replay_trees ~k ~iterations ~seed cfg ~reward =
  let rng = Nd.Rng.create ~seed in
  let rngs = Array.init k (fun i -> if i = 0 then rng else Nd.Rng.split rng) in
  Array.mapi
    (fun i rng ->
      let iterations = (iterations / k) + if i < iterations mod k then 1 else 0 in
      (Mcts.search_run ~config:(Mcts.default_config ~iterations ()) cfg ~reward
         ~rng ()).Mcts.results)
    rngs

let test_mcts_parallel_matches_sequential_pool () =
  (* Running the [k] trees concurrently on a pool changes nothing: the
     merged result is the trees replayed one after another without a
     pool and merged by signature (best reward, summed visits, a
     quarantine only when every tree quarantined), rewards bit for bit.
     On the par bench's search the pooled run is also run twice. *)
  let by_signature rs = List.sort compare (fingerprint rs) in
  let check what cfg ~reward ~iterations ~repeat (k, seed) =
    let pooled () =
      Par.Pool.with_pool ~domains:k (fun pool ->
          (Mcts.search_run
            ~config:(Mcts.default_config ~iterations ())
            ~pool cfg ~reward ~rng:(Nd.Rng.create ~seed) ()).Mcts.results)
    in
    let pooled = pooled () :: (if repeat then [ pooled () ] else []) in
    let merged = Hashtbl.create 64 in
    Array.iter
      (List.iter (fun r ->
           let key = Graph.operator_signature r.Mcts.operator in
           let entry = (r.Mcts.reward, r.Mcts.visits, r.Mcts.quarantined) in
           Hashtbl.replace merged key
             (match Hashtbl.find_opt merged key with
             | None -> entry
             | Some (reward, visits, quarantined) ->
                 ( Float.max reward r.Mcts.reward,
                   visits + r.Mcts.visits,
                   quarantined && r.Mcts.quarantined ))))
      (replay_trees ~k ~iterations ~seed cfg ~reward);
    let sequential =
      List.sort compare
        (Hashtbl.fold
           (fun key (reward, visits, quarantined) acc ->
             (key, Int64.bits_of_float reward, visits, quarantined) :: acc)
           merged [])
    in
    List.iter
      (fun pooled ->
        Alcotest.(check bool)
          (Printf.sprintf "%s k=%d seed %d: pool = trees in sequence" what k seed)
          true
          (by_signature pooled = sequential))
      pooled
  in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  List.iter
    (check "matmul" (matmul_cfg ()) ~reward ~iterations:100 ~repeat:false)
    [ (2, 13); (3, 17); (3, 29) ];
  List.iter
    (fun iterations ->
      check
        (Printf.sprintf "conv %d iterations" iterations)
        conv_cfg ~reward:Bench_inputs.conv_reward ~iterations ~repeat:true (2, 41))
    conv_budgets

let test_mcts_parallel_merges_trees () =
  (* A pool of size 4 runs exactly the four trees the contract names and
     merges them by signature: the union of their operators, visits
     summed, each reward the operator's score.  242 iterations do not
     divide evenly, so trees 0 and 1 run one more than trees 2 and 3. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let k = 4 and iterations = 242 in
  let merged =
    Par.Pool.with_pool ~domains:k (fun pool ->
        (Mcts.search_run
          ~config:(Mcts.default_config ~iterations ())
          ~pool cfg ~reward ~rng:(Nd.Rng.create ~seed:29) ()).Mcts.results)
  in
  Alcotest.(check bool) "found operators" true (merged <> []);
  let sigs = List.map (fun r -> Graph.operator_signature r.Mcts.operator) merged in
  Alcotest.(check int) "deduplicated" (List.length sigs)
    (List.length (List.sort_uniq compare sigs));
  let expected = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun r ->
         let key = Graph.operator_signature r.Mcts.operator in
         let visits = Option.value ~default:0 (Hashtbl.find_opt expected key) in
         Hashtbl.replace expected key (visits + r.Mcts.visits)))
    (replay_trees ~k ~iterations ~seed:29 cfg ~reward);
  Alcotest.(check int) "union of the trees" (Hashtbl.length expected) (List.length merged);
  List.iter
    (fun r ->
      let key = Graph.operator_signature r.Mcts.operator in
      Alcotest.(check (option int)) "visits summed over trees" (Hashtbl.find_opt expected key)
        (Some r.Mcts.visits);
      Alcotest.(check (float 0.0)) "reward is the operator's score"
        (Reward.score r.Mcts.operator (List.hd matmul_valuations))
        r.Mcts.reward)
    merged

let test_mcts_parallel_memo_per_tree () =
  (* Each tree memoizes its own rewards: the thunk runs at most once per
     signature per tree, so the total number of calls is exactly the sum
     of the trees' distinct operators, every call is accounted in the
     statistics, and two runs with the same generator are identical. *)
  let cfg = matmul_cfg () in
  let calls = Atomic.make 0 in
  let reward ~cancel:_ op =
    Atomic.incr calls;
    Reward.score op (List.hd matmul_valuations)
  in
  let k = 3 and iterations = 150 in
  let run () =
    Par.Pool.with_pool ~domains:k (fun pool ->
        Mcts.search_run
          ~config:(Mcts.default_config ~iterations ())
          ~pool cfg ~reward ~rng:(Nd.Rng.create ~seed:13) ())
  in
  let first = run () in
  let parallel_calls = Atomic.get calls in
  Alcotest.(check int) "every call is an evaluation" parallel_calls
    first.Mcts.stats.Mcts.evaluations;
  Atomic.set calls 0;
  let trees = replay_trees ~k ~iterations ~seed:13 cfg ~reward in
  Alcotest.(check int) "at most one reward call per signature per tree"
    (Array.fold_left (fun acc t -> acc + List.length t) 0 trees)
    parallel_calls;
  Alcotest.(check bool) "same generator, same results" true
    (fingerprint first.Mcts.results = fingerprint (run ()).Mcts.results)

let test_mcts_parallel_cancellation_partial () =
  (* A token tripped mid-search makes every tree return its partial
     table, and the merge still runs: results, not an exception, and
     evaluation stops well short of what the uncancelled search does. *)
  let cfg = matmul_cfg () in
  let config = Mcts.default_config ~iterations:2_000 () in
  let search ?cancel reward =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        (Mcts.search_run ~config ~pool ?cancel cfg ~reward
           ~rng:(Nd.Rng.create ~seed:7) ()).Mcts.results)
  in
  let baseline = Atomic.make 0 in
  let (_ : Mcts.result list) =
    search (fun ~cancel:_ op ->
        Atomic.incr baseline;
        Reward.score op (List.hd matmul_valuations))
  in
  let tok = Robust.Cancel.create () in
  let evals = Atomic.make 0 in
  let partial =
    search ~cancel:tok (fun ~cancel:_ op ->
        if Atomic.fetch_and_add evals 1 >= 2 then Robust.Cancel.cancel ~reason:"test" tok;
        Reward.score op (List.hd matmul_valuations))
  in
  Alcotest.(check bool) "returns partial results, does not raise" true (partial <> []);
  Alcotest.(check bool)
    (Printf.sprintf "stopped early (%d evals vs %d uncancelled)" (Atomic.get evals)
       (Atomic.get baseline))
    true
    (Atomic.get evals < Atomic.get baseline);
  (* a pre-tripped token returns immediately with nothing *)
  let dead = Robust.Cancel.create () in
  Robust.Cancel.cancel dead;
  let untouched = Atomic.make 0 in
  let empty =
    search ~cancel:dead (fun ~cancel:_ _ ->
        Atomic.incr untouched;
        1.0)
  in
  Alcotest.(check int) "pre-tripped: no results" 0 (List.length empty);
  Alcotest.(check int) "pre-tripped: no evaluations" 0 (Atomic.get untouched)

(* --- Reward features ------------------------------------------------------ *)

let conv_valuation = Syno.Zoo.Vars.conv_valuation ~n:1 ~c_in:16 ~c_out:16 ~hw:8 ()

let test_reward_features () =
  let f e = Reward.features e.Syno.Zoo.operator conv_valuation in
  let conv = f Syno.Zoo.conv2d in
  Alcotest.(check bool) "conv mixes spatially" true conv.Reward.spatial_mixing;
  Alcotest.(check bool) "conv mixes channels" true conv.Reward.channel_mixing;
  let pw = f Syno.Zoo.conv1x1 in
  Alcotest.(check bool) "1x1 no spatial mixing" false pw.Reward.spatial_mixing;
  Alcotest.(check bool) "1x1 channel mixing" true pw.Reward.channel_mixing;
  let shift = f Syno.Zoo.shift_conv in
  Alcotest.(check bool) "shift counts as spatial mixing" true shift.Reward.spatial_mixing

let test_reward_ordering () =
  let score e = Reward.score e.Syno.Zoo.operator conv_valuation in
  Alcotest.(check bool) "conv scores higher than 1x1" true
    (score Syno.Zoo.conv2d > score Syno.Zoo.conv1x1);
  let budget = 100 in
  Alcotest.(check (float 0.0)) "over budget scores zero" 0.0
    (Reward.score ~flops_budget:budget Syno.Zoo.conv2d.Syno.Zoo.operator conv_valuation)

let () =
  Alcotest.run "search"
    [
      ( "enumerate",
        [
          Alcotest.test_case "children canonical" `Quick test_children_are_canonical;
          Alcotest.test_case "finds matmul" `Quick test_synthesize_finds_matmul;
          Alcotest.test_case "results valid" `Quick test_synthesized_ops_valid;
          Alcotest.test_case "flops budget" `Quick test_flops_budget_respected;
        ] );
      ( "random-trials",
        [
          Alcotest.test_case "guided succeeds" `Quick test_random_completion_guided;
          Alcotest.test_case "guided beats unguided" `Quick test_random_completion_unguided_worse;
        ] );
      ( "mcts",
        [
          Alcotest.test_case "finds operators" `Quick test_mcts_finds_operators;
          Alcotest.test_case "rollout depth honored" `Quick test_mcts_rollout_depth_honored;
          Alcotest.test_case "reward memoized" `Quick test_mcts_reward_memoized;
          Alcotest.test_case "parallel = sequential" `Quick
            test_mcts_parallel_matches_sequential_pool;
          Alcotest.test_case "one-domain pool = no pool" `Quick test_mcts_pool_of_one_is_poolless;
          Alcotest.test_case "parallel merges trees" `Quick test_mcts_parallel_merges_trees;
          Alcotest.test_case "parallel memo per tree" `Quick test_mcts_parallel_memo_per_tree;
          Alcotest.test_case "parallel cancellation partial" `Quick
            test_mcts_parallel_cancellation_partial;
        ] );
      ( "reward",
        [
          Alcotest.test_case "features" `Quick test_reward_features;
          Alcotest.test_case "ordering" `Quick test_reward_ordering;
        ] );
    ]

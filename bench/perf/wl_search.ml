(* search: the synthesis loop users wait on.  One operation is one
   [Api.search_conv_operators_run] with full admission (corpus replay,
   static gate, budgets, differential validation, a fresh corpus, a
   checkpoint every 10 evaluations) at one domain, where the search is
   deterministic.  A run searches the seeds S..S+7 in interleaved
   passes, so every seed's search repeats exactly and its best time is
   its cost.  Set-up is a short search at fixed seeds, the same in every
   run.

   The traced run rebuilds the same search from public calls so it can
   wrap the reward and admission closures handed to
   [Search.Mcts.search_run]; each traced search must return the top-k
   of the untraced [Api] search of the same seed. *)

open Work
module Api = Syno.Api

let seeds ctx = if ctx.smoke then 4 else 8
let iterations ctx = if ctx.smoke then 40 else 200
let max_prims ctx = if ctx.smoke then 5 else 7
let checkpoint_every = 10
let setup_iterations ctx = if ctx.smoke then 10 else 30
let passes ctx = if ctx.smoke then 1 else sized ctx ~per_second:0.2
let rollout_probes ctx = if ctx.smoke then 20 else 300
let valuations = Api.default_search_valuations

let files dir =
  let corpus = Filename.concat dir "search.corpus" and checkpoint = Filename.concat dir "search.ckpt" in
  List.iter rm_rf [ corpus; checkpoint ];
  (corpus, checkpoint)

let api_search ctx dir ~iterations ~seed =
  let corpus, checkpoint = files dir in
  Api.search_conv_operators_run ~iterations ~max_prims:(max_prims ctx) ~domains:1 ~validate:true
    ~corpus ~checkpoint ~checkpoint_every ~rng:(Nd.Rng.create ~seed) ~valuations ()

(* What a search returns, compared bit for bit. *)
type found = { signature : string; reward : int64; quarantined : bool }

let fingerprint cands =
  List.map
    (fun (c : Api.candidate) ->
      { signature = c.Api.signature; reward = Int64.bits_of_float c.Api.reward; quarantined = c.Api.quarantined })
    cands

(* The convolution search space exactly as [Api] builds it: the same
   enumeration config, the same analytic reward, a FLOPs budget of one
   standard convolution. *)
let space ~max_prims =
  let open Syno.Zoo.Vars in
  let module Size = Shape.Size in
  let sz = Size.of_var in
  let budget =
    List.fold_left
      (fun acc v -> max acc (Pgraph.Flops.naive_flops Syno.Zoo.conv2d.Syno.Zoo.operator v))
      0 valuations
  in
  let base =
    Search.Enumerate.default_config ~output_shape:[ sz n; sz c_out; sz h; sz w ]
      ~desired_shape:[ sz n; sz c_in; sz h; sz w ] ~valuations ()
  in
  let cfg =
    {
      base with
      Search.Enumerate.max_prims;
      coefficient_candidates = [ sz k; sz s; sz g ];
      reduce_candidates =
        [
          sz c_in;
          Size.mul (Size.var_pow g (-1)) (sz c_in);
          Size.mul (Size.var_pow g (-1)) (Size.mul (Size.var_pow s (-1)) (sz c_out));
          Size.mul (Size.var_pow s (-1)) (sz c_out);
          sz k;
        ];
      max_flops = Some budget;
      frozen_sizes = [ sz n ];
    }
  in
  let reward ~cancel op =
    List.fold_left
      (fun acc v ->
        Robust.Cancel.check cancel;
        acc +. Search.Reward.score ~flops_budget:budget op v)
      0.0 valuations
    /. float_of_int (List.length valuations)
  in
  (cfg, reward)

type traced = { t_found : found list; t_stats : Search.Mcts.failure_stats; t_gate : Validate.Admit.stats }

(* The admission stages, in the order the gate runs them, with the stat
   field that accumulates each one's seconds. *)
let gate_stages =
  Validate.Admit.
    [
      ("validate.replay", fun s -> s.replay_seconds);
      ("analysis.static", fun s -> s.static_seconds);
      ("validate.budget", fun s -> s.budget_seconds);
      ("validate.differential", fun s -> s.differential_seconds);
    ]

(* [Api.search_conv_operators_run]'s single-domain path, spelled out so
   each layer call carries a span.  The gate's stage times come from
   [Validate.Admit.stats] deltas around each call, laid end to end
   inside the call's span. *)
let traced_search ctx dir ~seed =
  let tr = ctx.trace in
  let corpus, checkpoint = files dir in
  let cfg, reward = space ~max_prims:(max_prims ctx) in
  let sink = Search.Checkpoint.sink ~path:checkpoint ~every:checkpoint_every () in
  Search.Checkpoint.preload sink [];
  let corpus_t, gate =
    Trace.span tr "validate.corpus" (fun () ->
        let c, _ = Validate.Corpus.open_file corpus in
        ( c,
          Validate.Admit.create ~corpus:c ~static:Api.default_validation_valuations ~valuations
            ~differential:Validate.Differential.default_config
            ~check_valuations:Api.default_validation_valuations () ))
  in
  let admit op =
    Trace.span tr "validate.admit" (fun () ->
        let s0 = Validate.Admit.stats gate in
        let start = Trace.now () in
        let r = Validate.Admit.gate gate op in
        let s1 = Validate.Admit.stats gate in
        ignore
          (List.fold_left
             (fun at (name, field) ->
               let d = field s1 -. field s0 in
               if d <= 0.0 then at
               else
                 let stop = Int64.add at (Int64.of_float (d *. 1e9)) in
                 Trace.complete tr name ~start:at ~stop;
                 stop)
             start gate_stages);
        r)
  in
  let reward ~cancel op = Trace.span tr "search.reward" (fun () -> reward ~cancel op) in
  let run =
    Trace.span tr "search.mcts" (fun () ->
        Search.Mcts.search_run
          ~config:(Search.Mcts.default_config ~iterations:(iterations ctx) ())
          ~checkpoint:sink ~resume:[] ~admit cfg ~reward ~rng:(Nd.Rng.create ~seed) ())
  in
  let found =
    Trace.span tr "pgraph.flops" (fun () ->
        let v0 = List.hd valuations in
        List.map
          (fun (r : Search.Mcts.result) ->
            let op = r.Search.Mcts.operator in
            ignore (Pgraph.Flops.naive_flops op v0 + Pgraph.Flops.params op v0);
            {
              signature = Pgraph.Graph.operator_signature op;
              reward = Int64.bits_of_float r.Search.Mcts.reward;
              quarantined = r.Search.Mcts.quarantined;
            })
          run.Search.Mcts.results)
  in
  Trace.span tr "validate.corpus" (fun () -> Validate.Corpus.flush corpus_t);
  { t_found = found; t_stats = run.Search.Mcts.stats; t_gate = Validate.Admit.stats gate }

(* Replays on an untimed track: the rollout policy MCTS samples with,
   the expansion step it calls at every new node, and the checkpoint
   write its sink performs. *)
let probes ctx dir =
  let tr = ctx.trace in
  Trace.track tr ~tid:1 ~name:"replay: search steps" ~timed:false;
  let cfg, _ = space ~max_prims:(max_prims ctx) in
  let rng = seeded ctx "rollouts" in
  let n = rollout_probes ctx in
  let completed = ref 0 in
  let (), rollouts =
    time (fun () ->
        for _ = 1 to n do
          match
            Trace.span tr ~tid:1 "search.rollout" (fun () ->
                Search.Enumerate.random_completion cfg rng ~use_distance:true)
          with
          | Some _ -> incr completed
          | None -> ()
        done)
  in
  let root = Pgraph.Graph.init cfg.Search.Enumerate.output_shape in
  let states = root :: List.map snd (Search.Enumerate.children cfg root) in
  let (), expand =
    time (fun () ->
        List.iter
          (fun g -> ignore (Trace.span tr ~tid:1 "search.children" (fun () -> Search.Enumerate.children cfg g)))
          states)
  in
  let entries =
    List.map
      (fun (c : Api.candidate) ->
        {
          Search.Checkpoint.signature = c.Api.signature;
          operator = c.Api.operator;
          reward = c.Api.reward;
          visits = 1;
          quarantined = c.Api.quarantined;
          reason = None;
        })
      (api_search ctx dir ~iterations:(iterations ctx) ~seed:ctx.seed).Api.candidates
  in
  let path = Filename.concat dir "probe.ckpt" in
  let saves =
    Array.init 5 (fun _ ->
        snd (time (fun () -> Trace.span tr ~tid:1 "search.checkpoint_save" (fun () -> Search.Checkpoint.save ~path entries))))
  in
  [
    metric ~samples:n "search.rollout_ms" (1000.0 *. rollouts /. float_of_int n);
    metric ~samples:n "search.rollout_success" (float_of_int !completed /. float_of_int n);
    metric ~samples:(List.length states) "search.children_us"
      (1e6 *. expand /. float_of_int (List.length states));
    metric ~samples:5 "search.checkpoint_save_ms" (1000.0 *. Stats.median saves);
  ]

let run ctx =
  let c = checks () in
  let dir = scratch ctx "search" in
  let iters = iterations ctx and seeds = seeds ctx in
  let seed_of i = ctx.seed + i in
  let log = setups () in
  let set_up () =
    let r = List.length log.times in
    ignore (Work.set_up log (fun () -> api_search ctx dir ~iterations:(setup_iterations ctx) ~seed:r))
  in
  set_up ();
  let times = Array.make seeds [||] and first = Array.make seeds [] in
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let evals = ref 0 and ckpt = ref 0 and gate_calls = ref 0 and rejected = ref 0 in
  for pass = 0 to passes ctx - 1 do
    for i = 0 to seeds - 1 do
      let run, t = time_settled (fun () -> api_search ctx dir ~iterations:iters ~seed:(seed_of i)) in
      times.(i) <- Array.append times.(i) [| t |];
      let fp = fingerprint run.Api.candidates in
      if pass = 0 then first.(i) <- fp
      else check c (fp = first.(i)) "search seed %d: pass %d found a different top-k" (seed_of i) pass;
      if traced ctx && pass = 0 then begin
        let tr, tt =
          time_settled (fun () ->
              Trace.span ctx.trace "bench.search" (fun () -> traced_search ctx dir ~seed:(seed_of i)))
        in
        untraced_s := !untraced_s +. t;
        traced_s := !traced_s +. tt;
        check c (tr.t_found = fp) "search seed %d: traced top-k differs from the Api top-k" (seed_of i);
        evals := !evals + tr.t_stats.Search.Mcts.evaluations;
        ckpt := !ckpt + tr.t_stats.Search.Mcts.checkpoint_writes;
        gate_calls := !gate_calls + tr.t_gate.Validate.Admit.calls;
        rejected := !rejected + tr.t_gate.Validate.Admit.rejected
      end
    done;
    for _ = 1 to extra_setups ctx ~slots:(passes ctx) pass do
      set_up ()
    done
  done;
  if passes ctx = 1 then begin
    (* One pass repeats nothing; repeat the first seed to check that the
       search is deterministic. *)
    let again = fingerprint (api_search ctx dir ~iterations:iters ~seed:(seed_of 0)).Api.candidates in
    check c (again = first.(0)) "search seed %d: a repeated search found a different top-k" (seed_of 0)
  end;
  let best_s = Array.map best times in
  let total = Array.fold_left ( +. ) 0.0 best_s in
  let metrics =
    end_to_end ~setup_s:(setup_metric log) ~rss_mb:(peak_rss_mb "self")
      ~ops_per_s:(float_of_int (seeds * iters) /. total)
      ~samples:(seeds * passes ctx) ~latencies:best_s
  in
  let layer =
    if not (traced ctx) then []
    else begin
      let tr = ctx.trace in
      let per_search v = v /. float_of_int seeds in
      let self n = metric ~samples:(Trace.calls tr n) (n ^ "_s") (per_search (Trace.self_s tr n)) in
      let count n v = metric n (per_search (float_of_int v)) in
      trace_metrics ctx ~overhead:(!traced_s /. !untraced_s)
      @ [
          metric ~samples:seeds "search.mcts_self_s" (per_search (Trace.self_s tr "search.mcts"));
          self "search.reward";
          count "search.reward_calls" (Trace.calls tr "search.reward");
          self "validate.admit";
          count "validate.admit_calls" !gate_calls;
          self "validate.replay";
          self "analysis.static";
          self "validate.budget";
          self "validate.differential";
          self "validate.corpus";
          self "pgraph.flops";
          count "validate.rejected" !rejected;
          count "search.evaluations" !evals;
          count "search.checkpoint_writes" !ckpt;
        ]
      @ probes ctx dir
    end
  in
  rm_rf dir;
  {
    checks = c;
    metrics = metrics @ layer;
    sizes =
      [
        ("seeds", Json.Number (float_of_int seeds));
        ("iterations", Json.Number (float_of_int iters));
        ("max_prims", Json.Number (float_of_int (max_prims ctx)));
        ("checkpoint_every", Json.Number (float_of_int checkpoint_every));
        ("domains", Json.Number 1.0);
        ("passes", Json.Number (float_of_int (passes ctx)));
      ];
  }

module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Flops = Pgraph.Flops
module Convspec = Backbones.Convspec

type layer_op = { op : Graph.operator; valuation : Valuation.t }

(* Pick coefficient values that divide the layer's channel sizes. *)
let pick_divisor candidates n = List.find_opt (fun d -> n mod d = 0) candidates

let spec_valuation ?(g = 1) ?(s = 1) (spec : Convspec.t) =
  Zoo.Vars.conv_valuation ~n:1 ~c_in:spec.Convspec.in_channels
    ~c_out:spec.Convspec.out_channels ~hw:spec.Convspec.height
    ~k:(max 1 spec.Convspec.kernel) ~g ~s ()

let baseline_layer_op (spec : Convspec.t) =
  if spec.Convspec.groups = 1 then
    { op = Zoo.conv2d.Zoo.operator; valuation = spec_valuation spec }
  else if spec.Convspec.groups = spec.Convspec.in_channels then
    { op = Zoo.depthwise_conv.Zoo.operator; valuation = spec_valuation spec }
  else
    { op = Zoo.grouped_conv.Zoo.operator; valuation = spec_valuation ~g:spec.Convspec.groups spec }

(* An instantiation is usable if every size in the operator evaluates
   to a positive integer under the valuation. *)
let instantiable op valuation =
  match Flops.naive_flops op valuation + Flops.params op valuation with
  | (_ : int) -> true
  | exception Failure _ -> false

let substituted_layer_op entry (spec : Convspec.t) =
  if not (Convspec.substitutable spec) then baseline_layer_op spec
  else
    let g =
      Option.value ~default:1
        (pick_divisor [ 2; 4 ]
           (let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
            gcd spec.Convspec.in_channels spec.Convspec.out_channels))
    in
    let candidates =
      [
        spec_valuation ~g ~s:4 spec;
        spec_valuation ~g ~s:2 spec;
        spec_valuation ~g ~s:1 spec;
        spec_valuation ~g:1 ~s:1 spec;
      ]
    in
    let op = entry.Zoo.operator in
    match List.find_opt (fun v -> instantiable op v) candidates with
    | Some valuation -> { op; valuation }
    | None -> baseline_layer_op spec

let layer_instances ?substitute (model : Backbones.Models.t) =
  List.map
    (fun spec ->
      let { op; valuation } =
        match substitute with
        | Some entry -> substituted_layer_op entry spec
        | None -> baseline_layer_op spec
      in
      {
        Perf.Roofline.li_operator = op;
        li_valuation = valuation;
        li_count = spec.Convspec.count;
      })
    model.Backbones.Models.specs

let model_latency_ms ?substitute model compiler platform =
  Perf.Roofline.model_time_ms compiler platform (layer_instances ?substitute model)

let model_flops ?substitute model =
  List.fold_left
    (fun acc li ->
      let plan = Lower.Staging.optimize li.Perf.Roofline.li_operator li.li_valuation in
      acc + (plan.Lower.Staging.total_flops * li.li_count))
    0
    (layer_instances ?substitute model)

let speedup entry model compiler platform =
  model_latency_ms model compiler platform
  /. model_latency_ms ~substitute:entry model compiler platform

(* --- Proof-guided specialization ------------------------------------------ *)

type specialize_mode = [ `Auto | `Off | `On ]

let specialize_mode_to_string = function `Auto -> "auto" | `Off -> "off" | `On -> "on"

let specialize_mode_of_string = function
  | "auto" -> Some `Auto
  | "off" -> Some `Off
  | "on" -> Some `On
  | _ -> None

let specialize_operator ?(mode = `Auto) op valuation =
  match mode with
  | `Off -> Ok None
  | (`Auto | `On) as mode ->
      Analysis.Certify.specialize ~mode (Lower.Staged_exec.compile op valuation)

let specialized_forward ?mode op valuation =
  match specialize_operator ?mode op valuation with
  | Ok (Some sp) ->
      Some (fun ~input ~weights -> Lower.Specialize.forward sp ~input ~weights)
  | Ok None | Error _ -> None

(* --- Proxy training ------------------------------------------------------ *)

let proxy_batch_size = 16

let proxy_layer ?(specialize = `Off) entry rng (stage : Backbones.Proxy.stage_shape) =
  let valuation =
    Zoo.Vars.conv_valuation ~n:proxy_batch_size ~c_in:stage.Backbones.Proxy.in_ch
      ~c_out:stage.Backbones.Proxy.out_ch ~hw:stage.Backbones.Proxy.hw ~k:3 ~g:2 ~s:2 ()
  in
  let compiled = Lower.Reference.compile entry.Zoo.operator valuation in
  let forward = specialized_forward ~mode:specialize entry.Zoo.operator valuation in
  Nn.Layer.of_operator ?forward rng ~name:entry.Zoo.name compiled

let train_entry ?(epochs = 8) ?(lr = 0.1) ?clip_norm ?sentinel ?specialize ~rng entry
    (data : Dataset.Synth_vision.t) =
  let model =
    Backbones.Proxy.vision_model rng
      ~make_op:(fun rng stage -> proxy_layer ?specialize entry rng stage)
      ~in_channels:data.Dataset.Synth_vision.channels ~channels:8
      ~classes:data.Dataset.Synth_vision.classes
      ~size:data.Dataset.Synth_vision.size ()
  in
  let opt = Nn.Optimizer.sgd ~momentum:0.9 ~weight_decay:1e-4 ~lr () in
  Nn.Train.fit ?clip_norm ?sentinel model opt ~epochs ~train:data.Dataset.Synth_vision.train
    ~eval:data.Dataset.Synth_vision.eval

(* --- Search --------------------------------------------------------------- *)

type candidate = {
  operator : Graph.operator;
  signature : string;
  reward : float;
  flops : int;
  params : int;
  quarantined : bool;
}

let default_search_valuations =
  [
    Zoo.Vars.conv_valuation ~n:1 ~c_in:16 ~c_out:16 ~hw:16 ~k:3 ~g:2 ~s:2 ();
    Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:64 ~hw:8 ~k:3 ~g:2 ~s:2 ();
  ]

type search_run = {
  candidates : candidate list;
  failures : Search.Mcts.failure_stats;
  admission : Validate.Admit.stats option;
  corpus_stats : Validate.Corpus.stats option;
}

(* A small shape at which differential validation is cheap: three tiny
   forward passes instead of one search-sized one. *)
let default_validation_valuations =
  [ Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:4 ~k:3 ~g:2 ~s:2 () ]

let load_resume ?(on_corrupt = `Fail) path =
  if not (Sys.file_exists path) then []
  else
    match Search.Checkpoint.load_result ~path with
    | Ok entries -> entries
    | Error err -> (
        match on_corrupt with
        | `Restart -> []
        | `Fail ->
            failwith
              (Printf.sprintf "cannot resume from %s: %s" path
                 (Search.Checkpoint.string_of_error err)))

(* The convolution search space of the paper's evaluation: enumeration
   config and analytic proxy reward for the signature
   [[N, C_out, H, W] -> [N, C_in, H, W]] with a FLOPs budget relative to
   the standard convolution.  Shared between the in-process and the
   sharded multi-process entry points, so every worker sees the exact
   same space. *)
let conv_search_space ~max_prims ~flops_budget_ratio ~valuations =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let output_shape = [ sz n; sz c_out; sz h; sz w ] in
  let desired_shape = [ sz n; sz c_in; sz h; sz w ] in
  let conv_flops =
    List.fold_left
      (fun acc v -> max acc (Flops.naive_flops Zoo.conv2d.Zoo.operator v))
      0 valuations
  in
  (* Saturate: [int_of_float] of a float past [max_int] is unspecified. *)
  let budget = flops_budget_ratio *. float_of_int conv_flops in
  let budget = if budget >= float_of_int max_int then max_int else int_of_float budget in
  let base = Search.Enumerate.default_config ~output_shape ~desired_shape ~valuations () in
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
  (* The analytic proxy reward is fast per call, so the per-valuation
     boundary is poll enough; the token still reaches real training
     rewards that want finer-grained polls. *)
  let reward ~cancel:(token : Robust.Cancel.t) op =
    let r =
      List.fold_left
        (fun acc v ->
          Robust.Cancel.check token;
          acc +. Search.Reward.score ~flops_budget:budget op v)
        0.0 valuations
    in
    r /. float_of_int (max 1 (List.length valuations))
  in
  (cfg, reward)

let conv_gate ?corpus ~validate ~validate_config ~validation_valuations ~static_gate
    ~max_bytes ~max_flops ~valuations () =
  let differential = if validate then Some validate_config else None in
  (* The static verifier is free of tensor work, so it defaults on —
     but only bother building a gate when something else asked for
     admission, keeping gate-less runs gate-less.  An attached corpus
     counts: replay can reject on its own. *)
  if max_bytes = None && max_flops = None && differential = None && corpus = None then None
  else
    let static = if static_gate then validation_valuations else [] in
    Some
      (Validate.Admit.create ?corpus ~static ?max_bytes ?max_flops ~valuations ?differential
         ~check_valuations:validation_valuations ())

(* Open (or skip) the counterexample corpus for one search process.  A
   damaged file is quarantined by {!Validate.Corpus.open_file}; surface
   that on stderr — the run itself must never die for it. *)
let open_corpus ?(readonly = false) path =
  let t, report = Validate.Corpus.open_file ~readonly path in
  Robust.Durable.warn_quarantine Validate.Corpus.codec ~prefix:"syno: warning: " ~path report;
  t

let search_conv_operators_run ?(iterations = 2000) ?(max_prims = 9)
    ?(flops_budget_ratio = 1.0) ?(domains = 1) ?guard ?inject ?quarantine_reward
    ?checkpoint ?(checkpoint_every = 50) ?resume ?(on_corrupt = `Fail) ?max_bytes ?max_flops
    ?(validate = false) ?(validate_config = Validate.Differential.default_config)
    ?(validation_valuations = default_validation_valuations) ?(static_gate = true) ?corpus
    ?(corpus_readonly = false) ?cancel ~rng ~valuations () =
  let cfg, reward = conv_search_space ~max_prims ~flops_budget_ratio ~valuations in
  let sink =
    Option.map (fun path -> Search.Checkpoint.sink ~path ~every:checkpoint_every ()) checkpoint
  in
  let resume = match resume with Some path -> load_resume ~on_corrupt path | None -> [] in
  (* Preload the sink with the resumed entries so every snapshot a
     resumed run writes still carries the full history — without this, a
     second kill/resume cycle would silently shrink the memo. *)
  (match sink with Some s -> Search.Checkpoint.preload s resume | None -> ());
  let corpus_t = Option.map (open_corpus ~readonly:corpus_readonly) corpus in
  let gate =
    conv_gate ?corpus:corpus_t ~validate ~validate_config ~validation_valuations ~static_gate
      ~max_bytes ~max_flops ~valuations ()
  in
  let admit = Option.map (fun g op -> Validate.Admit.gate g op) gate in
  let search pool =
    Search.Mcts.search_run ~config:(Search.Mcts.default_config ~iterations ()) ?pool ?guard
      ?inject ?quarantine_reward ?checkpoint:sink ~resume ?admit ?cancel cfg ~reward ~rng ()
  in
  (* One domain builds no pool at all, so the sequential search spawns
     nothing and leaves the process free to fork afterwards. *)
  let run =
    if domains > 1 then Par.Pool.with_pool ~domains (fun pool -> search (Some pool))
    else search None
  in
  let v0 = List.hd valuations in
  let candidates =
    List.map
      (fun (r : Search.Mcts.result) ->
        {
          operator = r.Search.Mcts.operator;
          signature = Graph.operator_signature r.Search.Mcts.operator;
          reward = r.Search.Mcts.reward;
          flops = Flops.naive_flops r.Search.Mcts.operator v0;
          params = Flops.params r.Search.Mcts.operator v0;
          quarantined = r.Search.Mcts.quarantined;
        })
      run.Search.Mcts.results
  in
  (* Flush so short runs that never hit the add cadence still persist
     their distilled counterexamples. *)
  Option.iter Validate.Corpus.flush corpus_t;
  {
    candidates;
    failures = run.Search.Mcts.stats;
    admission = Option.map Validate.Admit.stats gate;
    corpus_stats = Option.map Validate.Corpus.stats corpus_t;
  }

(* --- Sharded multi-process search ----------------------------------------- *)

type sharded_run = {
  sh_candidates : candidate list;
  sh_report : Search.Coordinator.report;
  sh_merge : Search.Checkpoint.entry Robust.Durable.merged;
  sh_corpus : Validate.Corpus.entry Robust.Durable.merged option;
}

let search_conv_operators_sharded_run ?(iterations = 2000) ?(max_prims = 9)
    ?(flops_budget_ratio = 1.0) ?(shards = 2) ?workers ?max_restarts ?backoff
    ?heartbeat_timeout ?shard_deadline ?guard ?inject ?quarantine_reward
    ?(checkpoint_every = 1) ?max_bytes ?max_flops ?(validate = false)
    ?(validate_config = Validate.Differential.default_config)
    ?(validation_valuations = default_validation_valuations) ?(static_gate = true) ?corpus
    ?(corpus_readonly = false) ?kill_after ?(inline = false) ?cancel ~checkpoint_base ~seed
    ~valuations () =
  let cfg, space_reward = conv_search_space ~max_prims ~flops_budget_ratio ~valuations in
  let shards = max 1 shards in
  let per_shard_iterations = max 1 (iterations / shards) in
  let base_cc = Search.Coordinator.default_config ~shards () in
  let coord_config =
    {
      base_cc with
      Search.Coordinator.workers = Option.value ~default:base_cc.Search.Coordinator.workers workers;
      max_restarts = Option.value ~default:base_cc.Search.Coordinator.max_restarts max_restarts;
      backoff = Option.value ~default:base_cc.Search.Coordinator.backoff backoff;
      heartbeat_timeout =
        Option.value ~default:base_cc.Search.Coordinator.heartbeat_timeout heartbeat_timeout;
      shard_deadline;
    }
  in
  let body (ctx : Search.Coordinator.ctx) =
    let a = ctx.Search.Coordinator.assignment in
    (* Everything a shard does is a pure function of (seed, shard_id)
       and its own checkpoint — the determinism guarantee rests on it. *)
    let rng =
      Nd.Rng.create ~seed:(Search.Shard.derive_seed ~seed ~shard_id:a.Search.Shard.shard_id)
    in
    let inject =
      Option.map (fun i -> Robust.Inject.split i ~index:a.Search.Shard.shard_id) inject
    in
    let sink = Search.Checkpoint.sink ~path:a.Search.Shard.path ~every:checkpoint_every () in
    (* A damaged shard checkpoint restarts that shard from scratch; the
       merge below separately quarantines damaged files. *)
    let resume = load_resume ~on_corrupt:`Restart a.Search.Shard.path in
    Search.Checkpoint.preload sink resume;
    (* Each shard owns a private corpus file (resumed across restarts,
       merged by the parent afterwards, exactly like checkpoints); a
       readonly corpus is shared verbatim since nobody writes it.
       Pre-existing main-corpus entries seed every shard so the fleet
       starts as hard as the last run ended. *)
    let corpus_t =
      match corpus with
      | None -> None
      | Some base when corpus_readonly -> Some (open_corpus ~readonly:true base)
      | Some base ->
          let t =
            open_corpus
              (Robust.Durable.shard_path ~base ~shard_id:a.Search.Shard.shard_id)
          in
          (match Validate.Corpus.load_result ~path:base with
          | Ok entries -> Validate.Corpus.preload t entries
          | Error _ -> ());
          Some t
    in
    let gate =
      conv_gate ?corpus:corpus_t ~validate ~validate_config ~validation_valuations
        ~static_gate ~max_bytes ~max_flops ~valuations ()
    in
    let admit = Option.map (fun g op -> Validate.Admit.gate g op) gate in
    let evals = ref 0 in
    let reward ~cancel op =
      ctx.Search.Coordinator.beat ();
      incr evals;
      (match kill_after with
      | Some k when ctx.Search.Coordinator.forked && ctx.Search.Coordinator.attempt = 0 ->
          if !evals > k then Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      space_reward ~cancel op
    in
    let mcts_cfg = Search.Mcts.default_config ~iterations:per_shard_iterations () in
    let (_ : Search.Mcts.run) =
      Search.Mcts.search_run ~config:mcts_cfg ?guard ?inject ?quarantine_reward
        ~checkpoint:sink ~resume ?admit ~cancel:ctx.Search.Coordinator.cancel
        ~root_filter:(Search.Shard.root_filter a) cfg ~reward ~rng ()
    in
    Option.iter Validate.Corpus.flush corpus_t
  in
  let runner = if inline then Search.Coordinator.run_inline else Search.Coordinator.run in
  let report = runner ~config:coord_config ?cancel ~base:checkpoint_base ~seed ~body () in
  (* Once every process is done, merge the per-shard checkpoints and
     corpora the same way: one Durable.merge_shards call each, damaged
     shard files quarantined.  The merged corpus goes into the main
     corpus file, where pre-existing entries survive. *)
  let merge = Search.Shard.load_and_merge ~base:checkpoint_base ~shards in
  let corpus_merge =
    match corpus with
    | Some base when not corpus_readonly ->
        let mg = Validate.Corpus.load_and_merge ~base ~shards in
        (* Opened like any writer's corpus, so a damaged main file is
           quarantined and warned about rather than overwritten. *)
        let main = open_corpus base in
        ignore (Validate.Corpus.merge_into main mg.Robust.Durable.mg_entries : int);
        Validate.Corpus.flush main;
        Some { mg with Robust.Durable.mg_entries = Validate.Corpus.entries main }
    | Some _ | None -> None
  in
  let v0 = List.hd valuations in
  let candidates =
    List.map
      (fun (e : Search.Checkpoint.entry) ->
        {
          operator = e.Search.Checkpoint.operator;
          signature = e.Search.Checkpoint.signature;
          reward = e.Search.Checkpoint.reward;
          flops = Flops.naive_flops e.Search.Checkpoint.operator v0;
          params = Flops.params e.Search.Checkpoint.operator v0;
          quarantined = e.Search.Checkpoint.quarantined;
        })
      (Search.Shard.rank merge.Robust.Durable.mg_entries)
  in
  { sh_candidates = candidates; sh_report = report; sh_merge = merge; sh_corpus = corpus_merge }

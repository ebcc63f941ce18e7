(* The benchmark's workloads and metrics: the one place their names,
   units, directions and regression bounds are written down.
   BENCHMARK.json at the root of the repository is this module printed
   ([perf.exe spec]); [perf.exe all] fails when the two differ. *)

let command = [ "bash"; "bench/perf/run.sh" ]
let paths = [ "bench/perf" ]
let run_seconds = 20

let workloads =
  [
    ("search", "the synthesis loop users wait on: seeded MCTS searches with full admission, deterministic at one domain");
    ("serve-cold", "the daemon's write path: every request misses the cache and runs verify, differential, reference, specialize");
    ("serve-hot", "the daemon's read path: Zipf requests over warm keys, all cache hits, no tensor work; per-request overhead");
    ("kernel", "the generated code and training path: specialized forward passes of the operator catalog, proxy train steps");
  ]

let workload_names = List.map fst workloads

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, a share of the parent's median *)
  measured_on : string list;  (** per-layer only: the workloads that measure it; [] is all *)
}

let e2e name unit better bound = { name; unit; better; bound; measured_on = [] }

(* Every workload reports the same end-to-end metrics, over its own
   operations: seeded searches on [search] (whose throughput counts MCTS
   iterations), eval requests on the serve workloads, and on [kernel]
   operator forward passes and model train steps.  The in-process
   workloads repeat each of their operations and take its best time; see
   README.md. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "p50_ms" "ms" Lower 0.25;
  ]

(* The catalog the kernel workload runs: every conv-shaped zoo operator
   plus matmul.  Per-operator layer metrics are named after it. *)
let kernel_ops = List.map (fun e -> e.Syno.Zoo.name) Syno.Zoo.conv_like @ [ "matmul" ]

let layer on ?(better = Lower) name unit = { name; unit; better; bound = nan; measured_on = on }

let per_layer =
  let all = layer [] and search = layer [ "search" ] and cold = layer [ "serve-cold" ] in
  let serve = layer [ "serve-cold"; "serve-hot" ] and hot = layer [ "serve-hot" ] in
  let kernel = layer [ "kernel" ] in
  [
    all "trace.overhead" "ratio";
    all ~better:Higher "trace.coverage" "ratio";
    all "trace.spans" "count";
    search "search.mcts_self_s" "s";
    search "search.reward_s" "s";
    search "search.reward_calls" "count";
    search "validate.admit_s" "s";
    search "validate.admit_calls" "count";
    search "validate.replay_s" "s";
    search "analysis.static_s" "s";
    search "validate.budget_s" "s";
    search "validate.differential_s" "s";
    search "validate.corpus_s" "s";
    search "pgraph.flops_s" "s";
    search "validate.rejected" "count";
    search "search.evaluations" "count";
    search "search.checkpoint_writes" "count";
    search "search.checkpoint_save_ms" "ms";
    search "search.rollout_ms" "ms";
    search ~better:Higher "search.rollout_success" "ratio";
    search "search.children_us" "us";
    cold "serve.server_ms" "ms";
    cold "serve.overhead_ms" "ms";
    cold "serve.overhead_p99_ms" "ms";
    cold "serve.cold_p99_ms" "ms";
    cold "analysis.verify_ms" "ms";
    cold "validate.differential_ms" "ms";
    cold "lower.reference_ms" "ms";
    cold "lower.specialize_compile_ms" "ms";
    cold "lower.specialize_forward_ms" "ms";
    cold ~better:Higher "serve.profile_coverage" "ratio";
    cold "serve.cache_save_ms" "ms";
    serve "serve.protocol_us" "us";
    serve "serve.queue_depth_max" "count";
    serve ~better:Higher "serve.cache_hit_ratio" "ratio";
    serve "serve.cache_misses" "count";
    serve "serve.cache_evictions" "count";
    serve "serve.cache_writes" "count";
    serve "serve.shed" "count";
    hot "serve.hot_server_us" "us";
    hot "serve.hot_overhead_us" "us";
    hot "serve.hot_p99_us" "us";
    hot "serve.cache_find_us" "us";
    kernel "lower.catalog_compile_ms" "ms";
    kernel "lower.staged_compile_ms" "ms";
    kernel "analysis.regions_ms" "ms";
    kernel "analysis.certify_ms" "ms";
    kernel "lower.staged_ms" "ms";
  ]
  @ List.map (fun op -> kernel ("lower.specialize." ^ op ^ "_ms") "ms") kernel_ops
  @ List.map (fun op -> kernel ~better:Higher ("analysis.interior." ^ op) "ratio") kernel_ops
  @ [
      kernel "nn.train_step_ms" "ms";
      kernel "nn.forward_ms" "ms";
      kernel "nn.backward_opt_ms" "ms";
      kernel "nd.allocs_per_step" "count";
    ]

let measures workload m = m.measured_on = [] || List.mem workload m.measured_on

(* --- BENCHMARK.json ------------------------------------------------------------ *)

let benchmark_json =
  let open Json in
  let str s = String s in
  let better b = str (match b with Lower -> "lower" | Higher -> "higher") in
  Object
    [
      ("command", List (List.map str command));
      ("paths", List (List.map str paths));
      ("run_seconds", Number (float_of_int run_seconds));
      ("workloads", List (List.map (fun (n, why) -> Object [ ("name", str n); ("why", str why) ]) workloads));
      ( "end_to_end",
        List
          (List.map
             (fun m ->
               Object
                 [ ("name", str m.name); ("unit", str m.unit); ("better", better m.better); ("bound", Number m.bound) ])
             end_to_end) );
      ( "per_layer",
        List
          (List.map
             (fun m -> Object [ ("name", str m.name); ("unit", str m.unit); ("better", better m.better) ])
             per_layer) );
    ]

(* What differs between a BENCHMARK.json and this module, if anything. *)
let check path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Some e
  | text -> (
      match Json.parse text with
      | exception Json.Parse_error e -> Some (path ^ ": " ^ e)
      | j when j = benchmark_json -> None
      | _ -> Some (path ^ " differs from `perf.exe spec`; regenerate it"))

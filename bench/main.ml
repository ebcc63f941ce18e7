(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (\u{00a7}9) on the OCaml substrate, and times the
   infrastructure experiments.

     dune exec bench/main.exe           -- run every experiment, full size
     dune exec bench/main.exe fig5      -- one experiment
     dune exec bench/main.exe par-smoke -- a gated experiment at smoke size
     (experiments: see the [experiments] table at the end of this file)

   Results are stdout plus the exit status: a gated experiment names each
   failed gate with its reading and bound on stderr and exits 1, and an
   unknown experiment name exits 2 before anything runs.  A gate here
   reads a clock or needs a forked or killed process; every check that
   does neither is an alcotest case under test/ (the full sizes of the
   slow ones run under `dune build @gates-full`).  The committed
   performance trajectory is bench/perf, not this harness.

   Paper-reported numbers are printed alongside the measured ones; the
   hardware/datasets are simulated (see DESIGN.md), so the comparison
   targets the *shape* of each result, not absolute values. *)

module Size = Shape.Size
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Zoo = Syno.Zoo
module Api = Syno.Api
module Models = Backbones.Models

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* A gate: its name, what the run read, the bound it had to meet, and
   whether it did.  A gate over several readings ([holds]) reads true or
   false; the experiment prints the readings themselves. *)
type gate = { name : string; read : string; bound : string; ok : bool }

let gate name ~read ~bound ok = { name; read; bound; ok }
let holds name ok = gate name ~read:(string_of_bool ok) ~bound:"true" ok

let compare_gate op sym name x b =
  gate name ~read:(Printf.sprintf "%.3g" x) ~bound:(Printf.sprintf "%s %.3g" sym b) (op x b)

let at_least = compare_gate ( >= ) ">="
let at_most = compare_gate ( <= ) "<="
let below = compare_gate ( < ) "<"

(* Names every failed gate on stderr with its reading and bound, then
   exits 1 if there was one. *)
let gates checks =
  let failed = List.filter (fun g -> not g.ok) checks in
  List.iter
    (fun g -> Printf.eprintf "gate failed: %s: read %s, bound %s\n" g.name g.read g.bound)
    failed;
  if failed <> [] then exit 1

(* --- Shared accuracy evaluation ------------------------------------------ *)

(* Trained proxy accuracy per operator, cached across experiments (the
   paper likewise reuses the CIFAR-100 search accuracies). *)
let accuracy_cache : (string, float) Hashtbl.t = Hashtbl.create 8

(* The standard proxy mirrors the paper's CIFAR-100 regime: trainable
   operators all converge and the <1% admissibility gate passes them.
   The hard proxy (larger motifs, more classes, tighter budget) leaves
   headroom so operator-quality differences show (Fig. 8). *)
let proxy_data =
  lazy
    (let rng = Nd.Rng.create ~seed:1234 in
     Dataset.Synth_vision.generate rng ~classes:4 ~channels:4 ~size:10 ~train_batches:10
       ~eval_batches:8 ~batch_size:16 ())

let hard_data =
  lazy
    (let rng = Nd.Rng.create ~seed:4321 in
     Dataset.Synth_vision.generate rng ~classes:6 ~channels:4 ~size:10 ~motif:4
       ~train_batches:8 ~eval_batches:8 ~batch_size:16 ())

let hard_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let trained_accuracy_on cache data label (entry : Zoo.entry) =
  match Hashtbl.find_opt cache entry.Zoo.name with
  | Some acc -> acc
  | None ->
      let t0 = Unix.gettimeofday () in
      let h = Api.train_entry ~rng:(Nd.Rng.create ~seed:55) entry (Lazy.force data) in
      let acc = h.Nn.Train.final_eval_accuracy in
      Format.printf "  [train %s] %-16s accuracy %.3f  (%.0fs)@." label entry.Zoo.name acc
        (Unix.gettimeofday () -. t0);
      Hashtbl.add cache entry.Zoo.name acc;
      acc

let trained_accuracy entry = trained_accuracy_on accuracy_cache proxy_data "proxy" entry
let hard_accuracy entry = trained_accuracy_on hard_cache hard_data "hard" entry

let discovered = [ Zoo.operator1; Zoo.operator2; Zoo.shift_conv ]

(* --- Figure 5: end-to-end speedups --------------------------------------- *)

let fig5 () =
  section "Figure 5: end-to-end speedup, five vision models (CIFAR-100 proxy)";
  note "Syno picks the fastest discovered operator within 1%% accuracy loss";
  let conv_acc = trained_accuracy Zoo.conv2d in
  let admissible =
    List.filter (fun e -> trained_accuracy e >= conv_acc -. 0.01) discovered
  in
  note "admissible operators: %s"
    (String.concat ", " (List.map (fun e -> e.Zoo.name) admissible));
  let geomeans = Hashtbl.create 8 in
  Format.printf "@.  %-18s" "model";
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          Format.printf "%15s"
            (Printf.sprintf "%s/%s"
               (if Perf.Compiler_model.name c = "tvm" then "tvm" else "ind")
               p.Perf.Platform.name))
        Perf.Platform.all)
    Perf.Compiler_model.all;
  Format.printf "@.";
  List.iter
    (fun model ->
      Format.printf "  %-18s" model.Models.name;
      List.iter
        (fun compiler ->
          List.iter
            (fun platform ->
              let best =
                List.fold_left
                  (fun acc e -> Float.max acc (Api.speedup e model compiler platform))
                  1.0 admissible
              in
              let key = (Perf.Compiler_model.name compiler, platform.Perf.Platform.name) in
              let sum, n = try Hashtbl.find geomeans key with Not_found -> (0.0, 0) in
              Hashtbl.replace geomeans key (sum +. log best, n + 1);
              Format.printf "%14.2fx" best)
            Perf.Platform.all)
        Perf.Compiler_model.all;
      Format.printf "@.")
    Models.vision_models;
  Format.printf "  %-18s" "geomean";
  List.iter
    (fun compiler ->
      List.iter
        (fun platform ->
          let key = (Perf.Compiler_model.name compiler, platform.Perf.Platform.name) in
          let sum, n = Hashtbl.find geomeans key in
          Format.printf "%14.2fx" (exp (sum /. float_of_int n)))
        Perf.Platform.all)
    Perf.Compiler_model.all;
  Format.printf "@.";
  note "paper geomeans: TVM 2.06x/1.72x/1.47x, TorchInductor 1.37x/1.62x/1.60x";
  note "(mobile-cpu / mobile-gpu / a100)"

(* --- Figure 6: accuracy-latency Pareto ------------------------------------ *)

let fig6 () =
  section "Figure 6: accuracy vs inference-time Pareto points (ImageNet proxy)";
  let conv_acc = trained_accuracy Zoo.conv2d in
  let points model =
    let latency = function
      | None -> Api.model_latency_ms model Perf.Compiler_model.tvm Perf.Platform.mobile_cpu
      | Some e ->
          Api.model_latency_ms ~substitute:e model Perf.Compiler_model.tvm
            Perf.Platform.mobile_cpu
    in
    (None, conv_acc, latency None)
    :: List.map (fun e -> (Some e, trained_accuracy e, latency (Some e))) discovered
  in
  List.iter
    (fun model ->
      Format.printf "@.  %s (mobile CPU, TVM):@." model.Models.name;
      let pts = points model in
      let pareto (me, acc, lat) =
        not
          (List.exists
             (fun (other, acc', lat') ->
               (match (other, me) with
               | None, None -> false
               | Some a, Some b -> a.Zoo.name <> b.Zoo.name
               | _, _ -> true)
               && acc' >= acc && lat' < lat)
             pts)
      in
      List.iter
        (fun ((e, acc, lat) as pt) ->
          Format.printf "    %-18s acc %.3f (%+.3f)  %8.2f ms %s@."
            (match e with None -> "baseline" | Some e -> e.Zoo.name)
            acc (acc -. conv_acc) lat
            (if pareto pt then "[pareto]" else ""))
        pts)
    Models.vision_models;
  note "";
  note "paper: Syno points sit below-left of the baselines with 1-2%% accuracy";
  note "loss and up to 4.73x (TVM) speedup; the fastest admissible point per";
  note "model reproduces that corner"

(* --- Figure 8: Operator 1 case study -------------------------------------- *)

let fig8 () =
  section "Figure 8: Operator 1 vs stacked convolution vs INT8 quantization";
  Format.printf "@.  Operator 1 structure (Fig. 7 / Listing 2):@.";
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:64 ~c_out:64 ~hw:28 ~k:3 ~g:2 ~s:2 () in
  let ep = Lower.Einsum_program.compile Zoo.operator1.Zoo.operator valuation in
  print_string (Lower.Einsum_program.to_pytorch ep);
  let conv_acc = hard_accuracy Zoo.conv2d in
  let op1_acc = hard_accuracy Zoo.operator1 in
  let stacked_acc = hard_accuracy Zoo.stacked_conv in
  (* INT8 quantization degrades the baseline by about one point in the
     paper; we reuse that reported delta (this substrate trains FP32). *)
  let int8_acc = conv_acc -. 0.012 in
  let model = Models.resnet18 in
  let tvm = Perf.Compiler_model.tvm in
  Format.printf "@.  %-24s %8s  %12s %12s %12s@." "configuration" "accuracy" "mobile-cpu"
    "mobile-gpu" "a100";
  let row name acc latency =
    Format.printf "  %-24s %8.3f  %10.2fms %10.2fms %10.2fms@." name acc
      (latency Perf.Platform.mobile_cpu)
      (latency Perf.Platform.mobile_gpu)
      (latency Perf.Platform.a100)
  in
  row "conv (fp32 baseline)" conv_acc (fun p -> Api.model_latency_ms model tvm p);
  row "operator 1" op1_acc (fun p -> Api.model_latency_ms ~substitute:Zoo.operator1 model tvm p);
  row "stacked grouped conv" stacked_acc (fun p ->
      Api.model_latency_ms ~substitute:Zoo.stacked_conv model tvm p);
  let int8_latency p =
    List.fold_left
      (fun acc spec ->
        let lo = Api.baseline_layer_op spec in
        acc
        +. float_of_int spec.Backbones.Convspec.count
           *. Perf.Roofline.quantized_operator_time_us tvm p lo.Api.op lo.Api.valuation)
      0.0 model.Models.specs
    /. 1000.0
  in
  row "conv INT8 (paper delta)" int8_acc int8_latency;
  note "";
  note "paper shape: Operator 1 keeps accuracy within 1%%; the stacked";
  note "convolution has similar latency but roughly doubles the degradation;";
  note "Operator 1 also beats INT8 on CPU latency with better accuracy"

(* --- Figure 9: layer-wise comparison with NAS-PTE ------------------------- *)

let fig9 () =
  section "Figure 9: layer-wise latency vs NAS-PTE on ResNet-34";
  let ops =
    [
      ("conv", Zoo.conv2d);
      ("pte-group", Zoo.nas_pte_grouped);
      ("pte-bneck", Zoo.nas_pte_bottleneck);
      ("pte-range", Zoo.nas_pte_range_bottleneck);
      ("syno-op1", Zoo.operator1);
      ("syno-op2", Zoo.operator2);
    ]
  in
  List.iter
    (fun compiler ->
      Format.printf "@.  [%s] latency in us:@." (Perf.Compiler_model.name compiler);
      Format.printf "  %-12s %-12s" "layer" "platform";
      List.iter (fun (name, _) -> Format.printf "%11s" name) ops;
      Format.printf "@.";
      List.iter
        (fun spec ->
          List.iter
            (fun platform ->
              Format.printf "  %-12s %-12s" spec.Backbones.Convspec.layer
                platform.Perf.Platform.name;
              List.iter
                (fun (_, e) ->
                  let lo = Api.substituted_layer_op e spec in
                  Format.printf "%11.1f"
                    (Perf.Roofline.operator_time_us compiler platform lo.Api.op
                       lo.Api.valuation))
                ops;
              Format.printf "@.")
            Perf.Platform.all)
        Models.resnet34_profile_layers)
    Perf.Compiler_model.all;
  Format.printf "@.  FLOPs and parameter reduction of best Syno vs best NAS-PTE:@.";
  List.iter
    (fun spec ->
      let staged e =
        let lo = Api.substituted_layer_op e spec in
        (Lower.Staging.optimize lo.Api.op lo.Api.valuation).Lower.Staging.total_flops
      in
      let params e =
        let lo = Api.substituted_layer_op e spec in
        Pgraph.Flops.params lo.Api.op lo.Api.valuation
      in
      let ptes =
        [ Zoo.nas_pte_grouped; Zoo.nas_pte_bottleneck; Zoo.nas_pte_range_bottleneck ]
      in
      let best_pte f = List.fold_left (fun acc e -> min acc (f e)) max_int ptes in
      let best_syno f = min (f Zoo.operator1) (f Zoo.operator2) in
      Format.printf "    %-12s flops %5.2fx  params %5.2fx@." spec.Backbones.Convspec.layer
        (float_of_int (best_pte staged) /. float_of_int (best_syno staged))
        (float_of_int (best_pte params) /. float_of_int (best_syno params)))
    Models.resnet34_profile_layers;
  note "";
  note "paper: Syno's best ops beat NAS-PTE's best by 2.13x/1.68x/1.63x with";
  note "TVM (cpu/mobile-gpu/a100), with 1.76-4.32x fewer FLOPs and 1.80-9.50x";
  note "fewer parameters; with TorchInductor on mobile, NAS-PTE's standard";
  note "convolutions keep template support while novel operators fall back";
  note "to ATen, reversing the ranking (0.83x-0.84x)"

(* --- Figure 10: GPT-2 ------------------------------------------------------ *)

let fig10 () =
  section "Figure 10: GPT-2 perplexity vs training steps";
  let vocab = 24 and seq_len = 12 and embed = 24 and heads = 2 and layers = 2 in
  let steps = 150 in
  let rng = Nd.Rng.create ~seed:3 in
  let data =
    Dataset.Synth_lm.generate rng ~vocab ~seq_len ~batches:24 ~batch_size:6 ~branching:3 ()
  in
  note "synthetic LM: uniform ppl %.0f, entropy-floor ppl %.2f"
    (Dataset.Synth_lm.uniform_perplexity data)
    (Dataset.Synth_lm.floor_perplexity data);
  let run name make_qkv =
    let rng = Nd.Rng.create ~seed:99 in
    let model = Backbones.Gpt2.create rng ~vocab ~seq_len ~embed ~heads ~layers ?make_qkv () in
    let opt = Nn.Optimizer.adam ~lr:3e-3 () in
    let batches = Array.of_list data.Dataset.Synth_lm.batches in
    let curve = ref [] in
    let t0 = Unix.gettimeofday () in
    for step = 1 to steps do
      let inputs, targets = batches.(step mod Array.length batches) in
      let loss = Backbones.Gpt2.train_step model opt ~inputs ~targets in
      if step mod 25 = 0 then curve := (step, exp loss) :: !curve
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let final = Backbones.Gpt2.perplexity model data.Dataset.Synth_lm.batches in
    (name, Backbones.Gpt2.qkv_params model, List.rev !curve, final, wall)
  in
  let orig = run "original" None in
  let grouped rng ~embed =
    let proj () = Nn.Layer.grouped_linear rng ~features:embed ~groups:4 in
    (proj (), proj (), proj ())
  in
  let substituted = run "syno (grouped QKV)" (Some grouped) in
  List.iter
    (fun (name, qkv, curve, final, wall) ->
      Format.printf "@.  %-20s qkv-params %5d  %.1f ms/step@." name qkv
        (1000.0 *. wall /. float_of_int steps);
      List.iter (fun (s, p) -> Format.printf "    step %4d  ppl %7.2f@." s p) curve;
      Format.printf "    final ppl %.2f@." final)
    [ orig; substituted ];
  let _, _, _, p0, w0 = orig and _, _, _, p1, w1 = substituted in
  note "";
  note "measured: perplexity %.2f -> %.2f, training speedup %.2fx" p0 p1 (w0 /. w1);
  note "paper:    perplexity 111 -> 99,  training speedup 1.1x"

(* --- Table 3 + canonicalization ablation ----------------------------------- *)

let search_space_cfg ?(max_prims = 9) () =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let base =
    Search.Enumerate.default_config
      ~output_shape:[ sz n; sz c_out; sz h; sz w ]
      ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
      ~valuations:Api.default_search_valuations ()
  in
  {
    base with
    Search.Enumerate.max_prims;
    coefficient_candidates = [ sz k; sz s; sz g ];
    reduce_candidates = [ sz c_in; sz k; Size.mul (Size.var_pow s (-1)) (sz c_out) ];
    frozen_sizes = [ sz n ];
  }

let tab3 () =
  section "Table 3 / \u{00a7}9.4: canonicalization ablation";
  let cfg = search_space_cfg () in
  let open Zoo.Vars in
  let sz = Size.of_var in
  let output = [ sz n; sz c_out; sz h; sz w ] in
  let rng = Nd.Rng.create ~seed:77 in
  (* Sample random primitive sequences WITHOUT canonicalization and
     measure how many replay through the canonicalizer. *)
  let random_trace len =
    let rec go g remaining acc =
      if remaining = 0 then Some (List.rev acc)
      else
        let actions =
          List.filter
            (fun p -> Result.is_ok (Graph.apply g p))
            (Search.Enumerate.candidate_actions cfg g)
        in
        match actions with
        | [] -> None
        | actions ->
            let p = List.nth actions (Nd.Rng.int rng (List.length actions)) in
            go (Graph.apply_exn g p) (remaining - 1) (p :: acc)
    in
    go (Graph.init output) len []
  in
  let paper =
    [ (2, 100.0); (3, 18.18); (4, 13.97); (5, 4.40); (6, 1.22); (7, 0.08); (8, 0.0) ]
  in
  Format.printf "@.  %-6s %12s %12s@." "size" "measured" "paper";
  let total = ref 0 and canon_total = ref 0 in
  List.iter
    (fun (len, paper_rate) ->
      let samples = 400 in
      let canonical = ref 0 and drawn = ref 0 in
      for _ = 1 to samples do
        match random_trace len with
        | Some trace ->
            incr drawn;
            if Pgraph.Canon.trace_is_canonical cfg.Search.Enumerate.canon output trace then
              incr canonical
        | None -> ()
      done;
      total := !total + !drawn;
      canon_total := !canon_total + !canonical;
      Format.printf "  %-6d %11.2f%% %11.2f%%@." len
        (100.0 *. float_of_int !canonical /. float_of_int (max 1 !drawn))
        paper_rate)
    paper;
  note "";
  note "overall: %d of %d random pGraphs canonical (%.0fx redundancy removed)"
    !canon_total !total
    (float_of_int !total /. float_of_int (max 1 !canon_total));
  note "paper: 86 of 6452 samples canonical (more than 70x redundancy)"

(* --- Shape-distance ablation ------------------------------------------------ *)

let ablation () =
  section "\u{00a7}9.4: shape-distance guidance ablation";
  let cfg = search_space_cfg ~max_prims:8 () in
  let trials = 3000 in
  let run use_distance =
    let rng = Nd.Rng.create ~seed:5 in
    let distinct = Hashtbl.create 64 in
    let successes = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to trials do
      match Search.Enumerate.random_completion cfg rng ~use_distance with
      | Some op ->
          incr successes;
          Hashtbl.replace distinct (Graph.operator_signature op) ()
      | None -> ()
    done;
    (!successes, Hashtbl.length distinct, Unix.gettimeofday () -. t0)
  in
  let ok_with, distinct_with, t_with = run true in
  let ok_without, distinct_without, t_without = run false in
  Format.printf "@.  %-22s %10s %10s %10s@." "" "successes" "distinct" "seconds";
  Format.printf "  %-22s %10d %10d %10.2f@." "with shape distance" ok_with distinct_with
    t_with;
  Format.printf "  %-22s %10d %10d %10.2f@." "without" ok_without distinct_without t_without;
  note "";
  note "paper: 253 distinct operators from 5M guided trials in 68s;";
  note "500M unguided trials in 181s found none"

(* --- Microbenchmarks --------------------------------------------------------- *)

(* The first nest of [op]'s certified plan at [v], run alone, in ns per
   multiply-add (outputs times reduction points, clipped ones included),
   best of [runs] at pool size 1: the forward's per-nest cost without
   the staging around it. *)
let first_nest_ns ?(runs = 20) op v =
  let module St = Lower.Staged_exec in
  let st = St.compile op v in
  let plan = (Analysis.Regions.of_staged st).Analysis.Regions.rc_plan in
  let nest = (St.nests st plan).(0) in
  let r = St.reference st in
  let rng = Nd.Rng.create ~seed:17 in
  let x = Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape r) in
  let weights = Lower.Reference.init_weights r rng in
  let factors = Array.of_list (St.initial_factors st ~input:x ~weights) in
  let data f = Nd.Tensor.unsafe_data f.St.data in
  let extents, points, datas =
    match St.symbolic_plan st with
    | sym :: _, _ ->
        ( sym.St.ss_extents,
          sym.St.ss_dom,
          Array.map (fun i -> data factors.(i)) sym.St.ss_participating )
    | [], fsym ->
        (fsym.St.fs_out_doms, Array.fold_left ( * ) 1 fsym.St.fs_red_doms, Array.map data factors)
  in
  let volume = Array.fold_left ( * ) 1 extents in
  let out = Array.make volume 0.0 in
  let best = ref infinity in
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_domains (Par.Pool.num_domains ()))
    (fun () ->
      Par.Pool.set_default_domains 1;
      for _ = 1 to runs do
        Array.fill out 0 volume 0.0;
        let t0 = Unix.gettimeofday () in
        St.run_box ~cost:(points + 1) ~extents (Lower.Reference.forward_element nest datas out);
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done);
  !best *. 1e9 /. float_of_int (volume * points)

let micro () =
  section "Microbenchmarks of the core machinery (Bechamel)";
  let open Bechamel in
  let valuations = Api.default_search_valuations in
  let ctx = Coord.Simplify.ctx valuations in
  let conv = Zoo.conv2d.Zoo.operator in
  let expr = List.nth conv.Graph.op_input_exprs 2 in
  let cfg_canon = Pgraph.Canon.default_config ctx in
  let open Zoo.Vars in
  let sz = Size.of_var in
  let g0 = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g1 = Graph.apply_exn g0 (Prim.Reduce (sz c_in)) in
  let frontier = Graph.frontier_sizes g1 and desired = [ sz n; sz c_in; sz h; sz w ] in
  let warm = Pgraph.Distance.create () in
  ignore (Pgraph.Distance.distance warm ~current:frontier ~desired);
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:8 ~k:3 ~g:2 ~s:2 () in
  let compiled = Lower.Reference.compile conv valuation in
  let rng = Nd.Rng.create ~seed:1 in
  let x = Nd.Tensor.rand_normal rng ~scale:1.0 (Lower.Reference.input_shape compiled) in
  let conv_weights = Lower.Reference.init_weights compiled rng in
  let mat_a = Nd.Tensor.rand_normal rng ~scale:1.0 [| 32; 32 |] in
  let mat_b = Nd.Tensor.rand_normal rng ~scale:1.0 [| 32; 32 |] in
  (* A full serve cache: 1024 entries keyed like the daemon's
     ([signature@valuation]).  The snapshot row times the render the
     daemon's writer runs outside the cache lock; the write and the
     fsync are not in it. *)
  let signature = Graph.operator_signature conv in
  let cache_entries =
    List.init 1024 (fun i ->
        {
          Serve.Cache.e_key =
            Printf.sprintf "%s@n1.ci%d.co%d.hw%d.k3.g1.s1" signature (4 + (i mod 5)) (i / 5)
              (4 + (i mod 7));
          e_verdict = "padded";
          e_flops = 1_000_000 + i;
          e_params = 1000;
          e_elements = 1000;
          e_checksum = float_of_int i /. 7.0;
          e_cold_seconds = 0.01;
          e_spec_seconds = 0.001;
        })
  in
  let tests =
    Test.make_grouped ~name:"syno" ~fmt:"%s/%s"
      [
        Test.make ~name:"simplify-conv-expr"
          (Staged.stage (fun () -> Coord.Simplify.simplify ctx expr));
        Test.make ~name:"canon-check"
          (Staged.stage (fun () ->
               Pgraph.Canon.is_canonical cfg_canon g1 (Prim.Unfold (2, 4))));
        (* A fresh memo per run times [create] and the DP; a warm one, the lookup. *)
        Test.make ~name:"shape-distance (miss)"
          (Staged.stage (fun () ->
               Pgraph.Distance.distance (Pgraph.Distance.create ()) ~current:frontier ~desired));
        Test.make ~name:"shape-distance (hit)"
          (Staged.stage (fun () -> Pgraph.Distance.distance warm ~current:frontier ~desired));
        Test.make ~name:"einsum-32x32-matmul"
          (Staged.stage (fun () -> Nd.Einsum.einsum "ik,kj->ij" [ mat_a; mat_b ]));
        Test.make ~name:"reference-conv-8ch-8x8"
          (Staged.stage (fun () -> Lower.Reference.forward compiled ~input:x ~weights:conv_weights));
        Test.make ~name:"serve/cache-snapshot (1024 entries)"
          (Staged.stage (fun () -> Robust.Durable.to_string Serve.Cache.codec cache_entries));
        Test.make ~name:"serve/encode-signature"
          (Staged.stage (fun () -> Serve.Protocol.encode signature));
      ]
  in
  let benchmark_cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all benchmark_cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun key v acc -> (key, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some [ t ] -> t | Some _ | None -> nan
      in
      Format.printf "  %-42s %12.1f ns/run@." name ns)
    (List.sort compare rows);
  let kernel_v = Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 () in
  List.iter
    (fun (name, (e : Zoo.entry)) ->
      Format.printf "  %-42s %12.2f ns/multiply-add@." name (first_nest_ns e.Zoo.operator kernel_v))
    [
      ("kernel/conv2d final nest (c32 hw28)", Zoo.conv2d);
      ("kernel/operator1 stage 1 (c32 hw28)", Zoo.operator1);
    ]

(* --- Parallel evaluation engine ---------------------------------------------- *)

(* Throughput of the two hot paths at 1 domain vs N domains.  Timing is
   interleaved best-of-k so a background hiccup cannot fake a slowdown.
   The speedup gate is hardware-aware: with >= 2 hardware threads every
   case must reach >= 1x at the parallel pool size; on a single
   hardware thread (where the granularity tuner declines to
   parallelize) the gate is no-regression instead.  The smoke variant
   (bench-smoke alias, run from CI and `dune runtest`) uses tiny
   iteration counts so the gates run on every test run.  That the
   parallel results equal the sequential ones is test_par's "large
   parallel path" and test_search's "one-domain pool = no pool" and
   "parallel = sequential". *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let par_bench ~smoke () =
  section
    (Printf.sprintf "Parallel evaluation engine (Domains)%s" (if smoke then " [smoke]" else ""));
  let hw = Domain.recommended_domain_count () in
  (* Never oversubscribe past 4, never less than 2 — the point is to
     measure the parallel machinery even where it cannot win. *)
  let n_domains = max 2 (min 4 (Par.Pool.num_domains ())) in
  let min_speedup = if hw >= 2 then 1.0 else 0.85 in
  note "pool sizes: 1 vs %d (hardware threads %d, speedup gate %.2fx)" n_domains hw
    min_speedup;
  let pool1 = Par.Pool.create ~domains:1 () in
  let pooln = Par.Pool.create ~domains:n_domains () in
  let rng = Nd.Rng.create ~seed:2025 in
  (* Einsum: the default bench shapes. *)
  let iters = if smoke then 4 else 20 in
  let reps = if smoke then 3 else 5 in
  let einsum_cases =
    [
      ("matmul-128", "ik,kj->ij", [ [| 128; 128 |]; [| 128; 128 |] ]);
      ("batched-matmul", "bik,kj->bij", [ [| 8; 64; 64 |]; [| 64; 64 |] ]);
      ("pointwise-conv", "nchw,dc->ndhw", [ [| 2; 32; 24; 24 |]; [| 32; 32 |] ]);
    ]
  in
  let einsum_rows =
    List.map
      (fun (name, spec, shapes) ->
        let tensors =
          List.map (fun sh -> Nd.Tensor.rand_normal rng ~scale:1.0 sh) shapes
        in
        let p = Nd.Einsum.plan spec shapes in
        let run pool =
          let (), t =
            time (fun () ->
                for _ = 1 to iters do
                  ignore (Nd.Einsum.run ~pool p tensors)
                done)
          in
          t +. 1e-12
        in
        (* Warm both pools once, then interleave timed repetitions and
           keep the best of each. *)
        ignore (run pool1);
        ignore (run pooln);
        let t1 = ref infinity and tn = ref infinity in
        for _ = 1 to reps do
          t1 := Float.min !t1 (run pool1);
          tn := Float.min !tn (run pooln)
        done;
        let t1 = !t1 and tn = !tn in
        note "einsum %-16s %-16s 1-domain %8.1f runs/s  %d-domain %8.1f runs/s  %5.2fx"
          name spec
          (float_of_int iters /. t1)
          n_domains
          (float_of_int iters /. tn)
          (t1 /. tn);
        (name, t1 /. tn))
      einsum_cases
  in
  (* MCTS: sequential search vs root-parallel search on the same total
     iteration budget and the same seed.  Each side runs twice (the
     sequential side once more on a pool of 1), its time the better of
     its two runs, and the runs alternate sides so that one slow
     stretch of the machine cannot hit both runs of a side.  The best
     rewards are printed, not gated. *)
  let mcts_iterations = if smoke then 200 else 400 in
  (* Never run more trees than hardware threads: on a 1-core host this
     times one tree, an overhead measurement rather than a fake
     slowdown. *)
  let mcts_trees = max 1 (min n_domains hw) in
  let cfg = search_space_cfg ~max_prims:6 () in
  let mcts_cfg = Search.Mcts.default_config ~iterations:mcts_iterations () in
  let reward ~cancel:_ op = Search.Reward.score op (List.hd Api.default_search_valuations) in
  let search ?pool () =
    time (fun () ->
        (Search.Mcts.search_run ~config:mcts_cfg ?pool cfg ~reward
           ~rng:(Nd.Rng.create ~seed:41) ()).Search.Mcts.results)
  in
  let (res1, mt1), (resn, mtn), (_, mtp1), (_, mtn') =
    Par.Pool.with_pool ~domains:mcts_trees (fun pool ->
        let seq = search () in
        let par = search ~pool () in
        let seq' = search ~pool:pool1 () in
        (seq, par, seq', search ~pool ()))
  in
  let mt1 = Float.min mt1 mtp1 and mtn = Float.min mtn mtn' in
  let best rs =
    List.fold_left
      (fun acc (r : Search.Mcts.result) ->
        if r.Search.Mcts.quarantined then acc else Float.max acc r.Search.Mcts.reward)
      neg_infinity rs
  in
  note
    "mcts   %d iters (root-parallel)  sequential %5.2fs best %.4f   %d trees %5.2fs best %.4f  \
     %5.2fx"
    mcts_iterations mt1 (best res1) mcts_trees mtn (best resn) (mt1 /. mtn);
  Par.Pool.shutdown pool1;
  Par.Pool.shutdown pooln;
  let speedup_gate what = at_least (Printf.sprintf "%s speedup >= %.2fx" what min_speedup) in
  (* The MCTS speedup gate only makes sense on real parallel hardware:
     with one hardware thread the clamp above runs a single tree, whose
     timing is an overhead measurement, not a speedup claim, so it is
     printed but not gated (the einsum paths fall back to the tuner's
     sequential run instead, so they still gate). *)
  gates
    (List.map (fun (name, s) -> speedup_gate ("einsum " ^ name) s min_speedup) einsum_rows
    @ if hw >= 2 then [ speedup_gate "mcts" (mt1 /. mtn) min_speedup ] else [])

(* --- Fault-tolerant evaluation ------------------------------------------------ *)

(* Measures what robustness costs: Robust.Guard wrapping overhead per
   reward call, the wall time of a fault-injected search (with retries)
   and of a kill/resume cycle next to the fault-free one, and checkpoint
   write cost.  That the three searches agree is test_robust's
   "injected = fault-free" and "kill/resume equivalence". *)

let robust_bench () =
  section "Fault-tolerant candidate evaluation (Robust)";
  (* 1) Guard overhead on a cheap thunk: the worst case, since a real
     reward evaluation dwarfs the wrapper. *)
  let calls = 2_000_000 in
  let acc = ref 0.0 in
  let thunk i _token = Float.of_int (i land 1023) *. 0.5 in
  let never = Robust.Cancel.create () in
  let (), t_raw =
    time (fun () ->
        for i = 1 to calls do
          acc := !acc +. (thunk i) never
        done)
  in
  let policy = Robust.Guard.policy ~retries:2 () in
  let (), t_guarded =
    time (fun () ->
        for i = 1 to calls do
          let out = Robust.Guard.run ~policy ~key:"k" (thunk i) in
          match out.Robust.Guard.result with Ok r -> acc := !acc +. r | Error _ -> ()
        done)
  in
  ignore !acc;
  let ns t = 1e9 *. t /. float_of_int calls in
  note "guard overhead: raw %6.1f ns/call, guarded %6.1f ns/call (%.2fx)" (ns t_raw)
    (ns t_guarded)
    (t_guarded /. Float.max 1e-12 t_raw);
  (* 2) A real search, three ways: fault-free, fault-injected with
     retries, and killed + resumed. *)
  let iterations = 600 in
  let max_prims = 6 in
  let seed = 2024 in
  let run ?guard ?inject ?checkpoint ?resume label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims ?guard ?inject ?checkpoint
            ~checkpoint_every:10 ?resume ~rng:(Nd.Rng.create ~seed)
            ~valuations:Api.default_search_valuations ())
    in
    note "%-24s %3d operators, %4d evaluations, %4d attempts, %5.2fs" label
      (List.length r.Api.candidates)
      r.Api.failures.Search.Mcts.evaluations r.Api.failures.Search.Mcts.attempts t
  in
  run "fault-free";
  let inject = Robust.Inject.create ~seed:7 ~rate:0.25 ~max_failures:2 () in
  run ~guard:(Robust.Guard.policy ~retries:3 ()) ~inject "injected (rate 0.25)";
  (* Kill/resume: a truncated run checkpoints, then a full run resumes
     from the snapshot. *)
  let ckpt = Filename.temp_file "syno_bench" ".ckpt" in
  let (_ : Api.search_run) =
    Api.search_conv_operators_run ~iterations:(iterations / 3) ~max_prims
      ~checkpoint:ckpt ~checkpoint_every:5 ~rng:(Nd.Rng.create ~seed)
      ~valuations:Api.default_search_valuations ()
  in
  let entries =
    match Search.Checkpoint.load ~path:ckpt with
    | Ok es -> es
    | Error msg -> failwith ("checkpoint load failed: " ^ msg)
  in
  run ~resume:ckpt "resumed after kill";
  (* 3) Checkpoint write cost at the final table size. *)
  let writes = 50 in
  let (), t_save =
    time (fun () ->
        for _ = 1 to writes do
          Search.Checkpoint.save ~path:ckpt entries
        done)
  in
  let bytes = (Unix.stat ckpt).Unix.st_size in
  note "checkpoint: %d entries, %d bytes, %.2f ms/write" (List.length entries) bytes
    (1000.0 *. t_save /. float_of_int writes);
  Sys.remove ckpt

(* --- Candidate admission & differential validation ---------------------------- *)

(* Measures what the Validate layer costs: the admission gate's total
   time in a validated search, and the per-candidate validation cost,
   which must stay under 10% of a candidate evaluation.  What the layer
   catches is test_validate's "budget", "differential", "key grid" and
   "search" groups. *)

let validate_bench ~smoke () =
  section
    (Printf.sprintf "Candidate admission & differential validation%s"
       (if smoke then " [smoke]" else ""));
  let v0 = List.hd Api.default_search_valuations in
  (* 1) Searches: unvalidated (the candidate set below) and validated
     (the admission gate's cost). *)
  let iterations = if smoke then 150 else 600 in
  let run ?validate label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims:6 ?validate
            ~rng:(Nd.Rng.create ~seed:2024) ~valuations:Api.default_search_valuations ())
    in
    note "%-28s %3d operators, %4d evaluations, %3d quarantined, %5.2fs" label
      (List.length r.Api.candidates)
      r.Api.failures.Search.Mcts.evaluations r.Api.failures.Search.Mcts.quarantined t;
    r
  in
  let clean = run "unvalidated" in
  (match (run ~validate:true "validated (fault-free)").Api.admission with
  | Some s ->
      note "admission gate: %d gated, %d rejected, %.3fs total" s.Validate.Admit.calls
        s.Validate.Admit.rejected s.Validate.Admit.seconds
  | None -> ());
  (* 2) Validator overhead per candidate, against a stand-in for the
     cost of one candidate evaluation: the analytic reward plus one
     einsum-program forward at the search shape.  The search itself
     runs no forward (see reward.mli); the forward stands in for the
     tensor work a candidate costs once it is used.  Validation runs
     every backend's forward at the tiny validation shape, so it must
     stay well under the 10% gate. *)
  let candidates =
    List.filteri (fun i _ -> i < if smoke then 4 else 8)
      (List.filter_map
         (fun (c : Api.candidate) -> if c.Api.quarantined then None else Some c.Api.operator)
         clean.Api.candidates)
  in
  let repeats = if smoke then 3 else 10 in
  let eval_once op =
    ignore (Search.Reward.score op v0);
    let compiled = Lower.Reference.compile op v0 in
    let rng = Nd.Rng.create ~seed:9 in
    let input =
      Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
    in
    let weights = Lower.Reference.init_weights compiled rng in
    let ep = Lower.Einsum_program.compile op v0 in
    ignore (Lower.Einsum_program.forward ep ~input ~weights)
  in
  let validate_once op =
    match Validate.Differential.check op Api.default_validation_valuations with
    | Ok _ | Error _ -> ()
  in
  let mean f =
    let (), t =
      time (fun () -> List.iter (fun op -> for _ = 1 to repeats do f op done) candidates)
    in
    t /. float_of_int (max 1 (repeats * List.length candidates))
  in
  let mean_eval = mean eval_once in
  let mean_validate = mean validate_once in
  let ratio = mean_validate /. Float.max 1e-12 mean_eval in
  note "per-candidate cost over %d candidates: evaluation %.3f ms, validation %.3f ms (%.1f%%)"
    (List.length candidates) (1000.0 *. mean_eval) (1000.0 *. mean_validate)
    (100.0 *. ratio);
  gates [ at_most "validation overhead <= 10%" ratio 0.10 ]

(* --- Static analysis gate ----------------------------------------------------- *)

(* Measures what the Analysis layer costs: the bounds verdicts over the
   whole catalog, and the static gate against the differential gate on
   the same candidate set, where it must cost under 20%.  What the
   layer proves and catches is test_analysis's "verify", "rewrite" and
   "lint" cases. *)

let analysis_bench ~smoke () =
  section
    (Printf.sprintf "Static analysis gate (Analysis)%s" (if smoke then " [smoke]" else ""));
  let module Verify = Analysis.Verify in
  let vs = Api.default_validation_valuations in
  (* 1) Bounds verdicts over the whole catalog. *)
  let conv_v = List.hd vs in
  let matmul_v = Zoo.Vars.matmul_valuation ~m:4 ~n:4 ~k:4 in
  let verdict_of (e : Zoo.entry) =
    let v =
      if Option.is_some (Verify.program_opt e.Zoo.operator conv_v) then conv_v else matmul_v
    in
    Verify.program e.Zoo.operator v
  in
  let verdicts, t_zoo = time (fun () -> List.map verdict_of Zoo.all) in
  let count p = List.length (List.filter p verdicts) in
  note "zoo bounds: %d proved, %d padded, %d violations across %d operators (%.2f ms)"
    (count (fun x -> x = Verify.Proved))
    (count (function Verify.Padded _ -> true | _ -> false))
    (count (function Verify.Violation _ -> true | _ -> false))
    (List.length verdicts) (1000.0 *. t_zoo);
  (* 2) Candidate set: a short unvalidated search at the usual seed. *)
  let iterations = if smoke then 150 else 600 in
  let clean =
    Api.search_conv_operators_run ~iterations ~max_prims:6 ~rng:(Nd.Rng.create ~seed:2024)
      ~valuations:Api.default_search_valuations ()
  in
  let candidates =
    List.filteri (fun i _ -> i < if smoke then 6 else 12)
      (List.filter_map
         (fun (c : Api.candidate) -> if c.Api.quarantined then None else Some c.Api.operator)
         clean.Api.candidates)
  in
  (* 3) Gate cost on that candidate set. *)
  let repeats = if smoke then 5 else 20 in
  let mean f =
    let (), t =
      time (fun () -> List.iter (fun op -> for _ = 1 to repeats do f op done) candidates)
    in
    t /. float_of_int (max 1 (repeats * List.length candidates))
  in
  let mean_static = mean (fun op -> ignore (Verify.admit op vs)) in
  let mean_differential =
    mean (fun op -> ignore (Validate.Differential.check op vs))
  in
  let ratio = mean_static /. Float.max 1e-12 mean_differential in
  note "per-candidate gate cost over %d candidates: static %.4f ms, differential %.4f ms \
        (%.1f%%)"
    (List.length candidates) (1000.0 *. mean_static) (1000.0 *. mean_differential)
    (100.0 *. ratio);
  gates [ below "static gate cost < 20% of the differential gate" ratio 0.20 ]

(* --- Cooperative cancellation ------------------------------------------------ *)

(* Measures what cancellation costs: einsum's per-chunk polling sits at
   the noise floor (<2%, asserted in the full run), and Guard's
   preemptive deadline stops a deliberately slow candidate
   mid-evaluation with an overrun bounded by one poll interval.  That a
   search cancelled mid-run flushes its checkpoint and resumes to the
   uninterrupted top-k is test_robust's "cancelled search: partial +
   resume".  The smoke variant runs inside `dune runtest` via the
   bench-smoke alias. *)

let cancel_bench ~smoke () =
  section
    (Printf.sprintf "Cooperative cancellation (Cancel)%s" (if smoke then " [smoke]" else ""));
  (* 1) Einsum poll overhead: the same plan with and without an
     untripped token, best-of-k so scheduler noise doesn't drown a poll
     every 4096 output elements. *)
  let rng = Nd.Rng.create ~seed:2026 in
  let spec, shapes = ("ik,kj->ij", [ [| 128; 128 |]; [| 128; 128 |] ]) in
  let tensors = List.map (fun sh -> Nd.Tensor.rand_normal rng ~scale:1.0 sh) shapes in
  let p = Nd.Einsum.plan spec shapes in
  let iters = if smoke then 3 else 60 in
  let reps = if smoke then 3 else 5 in
  let best f =
    (* warm-up run, then best-of-reps *)
    f ();
    let b = ref infinity in
    for _ = 1 to reps do
      let (), t =
        time (fun () ->
            for _ = 1 to iters do
              f ()
            done)
      in
      if t < !b then b := t
    done;
    !b
  in
  let token = Robust.Cancel.create () in
  let t_plain = best (fun () -> ignore (Nd.Einsum.run p tensors)) in
  let t_polled = best (fun () -> ignore (Nd.Einsum.run ~cancel:token p tensors)) in
  let poll_overhead = (t_polled -. t_plain) /. Float.max 1e-12 t_plain in
  note "einsum poll overhead: plain %6.2f ms/run, polled %6.2f ms/run (%+.2f%%, best of %d)"
    (1000.0 *. t_plain /. float_of_int iters)
    (1000.0 *. t_polled /. float_of_int iters)
    (100.0 *. poll_overhead) reps;
  (* 2) Preemptive deadline on a deliberately slow candidate: an
     evaluation that loops einsum runs, polled through the token Guard
     hands it.  Without preemption this would run to completion and
     only then be classified Timeout; with it, the evaluation stops at
     the next poll and the overrun past the budget is bounded by one
     poll interval. *)
  let slow_runs = if smoke then 80 else 500 in
  let slow token =
    for _ = 1 to slow_runs do
      ignore (Nd.Einsum.run ~cancel:token p tensors)
    done;
    1.0
  in
  let never = Robust.Cancel.create () in
  let (), t_full = time (fun () -> ignore (slow never)) in
  let budget = Float.min (if smoke then 0.02 else 0.15) (t_full /. 4.0) in
  let policy = Robust.Guard.policy ~retries:0 ~timeout:budget () in
  let preempt_trials = if smoke then 2 else 5 in
  let timed_out = ref true in
  let t_preempted = ref 0.0 in
  let max_overrun = ref 0.0 in
  for _ = 1 to preempt_trials do
    let out, t = time (fun () -> Robust.Guard.run ~policy ~key:"slow-candidate" slow) in
    (match out.Robust.Guard.result with
    | Error Robust.Guard.Timeout -> ()
    | _ -> timed_out := false);
    t_preempted := t;
    if t -. budget > !max_overrun then max_overrun := t -. budget
  done;
  note
    "preemption: full run %.3fs, budget %.3fs -> stopped in %.3fs (%s), worst overrun \
     %.1f ms over %d trials"
    t_full budget !t_preempted
    (if !timed_out then "Timeout" else "NOT TIMEOUT")
    (1000.0 *. !max_overrun) preempt_trials;
  let preempt_bound = t_full /. 2.0 in
  gates
    ((if smoke then [] else [ below "einsum poll overhead < 2%" poll_overhead 0.02 ])
    @ [
        gate "preemptive deadline stops the slow candidate"
          ~read:
            (Printf.sprintf "%s after %.3fs" (if !timed_out then "Timeout" else "no Timeout")
               !t_preempted)
          ~bound:(Printf.sprintf "Timeout in < %.3fs" preempt_bound)
          (!timed_out && !t_preempted < preempt_bound);
      ])

(* --- Sharded multi-process search --------------------------------------------- *)

(* Proves the headline guarantee of the sharded coordinator
   (Search.Shard + Search.Coordinator): an N-shard run of forked worker
   processes — even one whose workers are killed and restarted
   mid-search — merges to exactly the candidate list of the fork-free
   inline reference on the same seed, and a shard checkpoint truncated
   behind the coordinator's back is quarantined without aborting the
   merge (the affected shard re-searches and the results still match).
   Also prints merged-throughput scaling across shard counts
   (informational on hosts without real parallelism) and the wall-clock
   cost of a kill/restart recovery.  The smoke variant runs inside
   `dune runtest` via the bench-smoke alias. *)

let shard_bench ~smoke () =
  section
    (Printf.sprintf "Sharded multi-process search (Coordinator)%s"
       (if smoke then " [smoke]" else ""));
  let iterations = if smoke then 240 else 900 in
  let max_prims = 6 in
  let seed = 2024 in
  let shards = if smoke then 2 else 3 in
  let base = Filename.temp_file "syno_shard" ".ckpt" in
  Sys.remove base;
  let clear_shards n =
    for i = 0 to n - 1 do
      let p = Robust.Durable.shard_path ~base ~shard_id:i in
      if Sys.file_exists p then Sys.remove p
    done
  in
  let run ?(shards = shards) ?kill_after ?(inline = false) ?(clean = true) label =
    if clean then clear_shards shards;
    let r, t =
      time (fun () ->
          Api.search_conv_operators_sharded_run ~iterations ~max_prims ~shards ?kill_after
            ~inline ~checkpoint_base:base ~seed
            ~valuations:Api.default_search_valuations ())
    in
    note "%-28s %3d operators, %d restarts, %5.2fs" label
      (List.length r.Api.sh_candidates)
      r.Api.sh_report.Search.Coordinator.rp_restarts t;
    (r, t)
  in
  let sigs (r : Api.sharded_run) =
    List.map (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward)) r.Api.sh_candidates
  in
  (* 1) Determinism: inline reference vs forked vs forked-with-kills. *)
  let inline_r, _ = run ~inline:true "inline reference" in
  let forked_r, t_forked = run "forked workers" in
  let killed_r, t_killed = run ~kill_after:3 "forked + kill/restart" in
  let forked_ok = sigs inline_r = sigs forked_r in
  let killed_ok = sigs inline_r = sigs killed_r in
  let restarts = killed_r.Api.sh_report.Search.Coordinator.rp_restarts in
  let restarted = restarts >= 1 in
  let recovery = t_killed -. t_forked in
  note "forked merge %s the inline reference; after kills %s (%d restarts, +%.2fs recovery)"
    (if forked_ok then "matches" else "DIVERGED from")
    (if killed_ok then "matches" else "DIVERGED")
    restarts recovery;
  (* 2) Corrupt-checkpoint survival: truncate one shard file mid-entry.
     The merge must quarantine exactly that file and keep going, and a
     re-run (whose damaged shard restarts fresh while the others resume
     fully memoized) must still reproduce the inline results. *)
  let shard0 = Robust.Durable.shard_path ~base ~shard_id:0 in
  let size = (Unix.stat shard0).Unix.st_size in
  Unix.truncate shard0 (max 1 (size / 2));
  let m = Search.Shard.load_and_merge ~base ~shards in
  let quarantined_ids = List.map fst m.Robust.Durable.mg_quarantined in
  let corrupt_quarantined =
    quarantined_ids = [ 0 ] && List.length m.Robust.Durable.mg_loaded = shards - 1
  in
  note "truncated shard 0 checkpoint: merge quarantined %s, kept %d clean shard(s), %d \
        entries"
    (String.concat "," (List.map string_of_int quarantined_ids))
    (List.length m.Robust.Durable.mg_loaded)
    (List.length m.Robust.Durable.mg_entries);
  let corrupt_rerun, _ = run ~clean:false "re-run over corrupt shard" in
  let corrupt_ok = sigs inline_r = sigs corrupt_rerun in
  note "re-run over the corrupt shard %s the inline reference"
    (if corrupt_ok then "matches" else "DIVERGED from");
  (* 3) Merged-throughput scaling: the same total budget at 1..N shards.
     Candidate sets legitimately differ across shard counts (different
     partitions); only wall clock is printed, and it is not gated. *)
  List.iter
    (fun n ->
      clear_shards n;
      ignore (run ~shards:n ~clean:true (Printf.sprintf "throughput, %d shard(s)" n)))
    (List.sort_uniq compare [ 1; shards ]);
  clear_shards shards;
  gates
    [
      holds "forked merge = inline reference" forked_ok;
      holds "killed+restarted merge = inline reference" killed_ok;
      gate "a killed shard was restarted" ~read:(string_of_int restarts) ~bound:">= 1" restarted;
      holds "exactly the truncated shard quarantined" corrupt_quarantined;
      holds "re-run over the corrupt shard = inline reference" corrupt_ok;
    ]

(* --- Counterexample-guided admission (CEGIS) ----------------------------------- *)

(* Proves the corpus's three headline guarantees (Validate.Corpus).
   (1) Hardening: a seeded-miscompile family caught by differential
   validation on the first run is rejected by corpus replay on the
   second — the faulty backend never executes again (zero fault
   deliveries) and the search trajectory is unchanged.  (2) Cheapness:
   replaying the populated corpus against the zoo costs <= 25% of
   differentially validating the same operators.  (3) Crash tolerance:
   a sharded run whose workers are killed and restarted mid-search
   merges to exactly the corpus and top-k of the fork-free inline
   reference.  The smoke variant runs inside `dune runtest` via the
   bench-smoke alias. *)

let cegis_bench ~smoke () =
  section
    (Printf.sprintf "Counterexample-guided admission (Corpus)%s"
       (if smoke then " [smoke]" else ""));
  let iterations = if smoke then 150 else 600 in
  let max_prims = 6 in
  let seed = 2024 in
  let corpus_path = Filename.temp_file "syno_cegis" ".corpus" in
  Sys.remove corpus_path;
  (* Fault delivery is keyed by a hash of the candidate, not by call
     order, so the same candidates miscompile in every run below —
     what changes is which admission stage catches them. *)
  let miscompile () =
    Validate.Differential.fault ~seed:3 ~rate:0.5 Validate.Differential.Einsum
  in
  let run ~fault label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims ~validate:true
            ~validate_config:(Validate.Differential.config ~fault ())
            ~corpus:corpus_path ~rng:(Nd.Rng.create ~seed)
            ~valuations:Api.default_search_valuations ())
    in
    let s = Option.get r.Api.admission in
    note "%-28s %3d operators, replay %d + differential %d rejections, %5.2fs" label
      (List.length r.Api.candidates)
      s.Validate.Admit.rejected_replay s.Validate.Admit.rejected_differential t;
    (r, s)
  in
  let sigs (r : Api.search_run) =
    List.map
      (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward, c.Api.quarantined))
      r.Api.candidates
  in
  (* 3) Crash tolerance: killed + restarted sharded run vs inline
     reference — identical merged top-k AND identical merged corpus.
     It runs first: OCaml refuses [Unix.fork] in a process that has
     ever spawned a domain, and every in-process validated search below
     (the inline reference included) runs einsum on the default pool. *)
  let base = Filename.temp_file "syno_cegis_shard" ".ckpt" in
  Sys.remove base;
  let shard_corpus = base ^ ".corpus" in
  let shards = 2 in
  let clear () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (shard_corpus
      :: List.concat
           (List.init shards (fun i ->
                [
                  Robust.Durable.shard_path ~base ~shard_id:i;
                  Robust.Durable.shard_path ~base:shard_corpus ~shard_id:i;
                ])))
  in
  let sharded ?kill_after ~inline label =
    clear ();
    let r, t =
      time (fun () ->
          Api.search_conv_operators_sharded_run ~iterations ~max_prims ~shards ?kill_after
            ~inline ~validate:true
            ~validate_config:(Validate.Differential.config ~fault:(miscompile ()) ())
            ~corpus:shard_corpus ~checkpoint_base:base ~seed
            ~valuations:Api.default_search_valuations ())
    in
    let idents =
      match r.Api.sh_corpus with
      | Some m -> List.map Validate.Corpus.ident m.Robust.Durable.mg_entries
      | None -> []
    in
    note "%-28s %3d operators, %d restarts, %d corpus entries, %5.2fs" label
      (List.length r.Api.sh_candidates)
      r.Api.sh_report.Search.Coordinator.rp_restarts (List.length idents) t;
    (r, idents)
  in
  let ssigs (r : Api.sharded_run) =
    List.map
      (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward, c.Api.quarantined))
      r.Api.sh_candidates
  in
  let killed_r, killed_idents = sharded ~kill_after:3 ~inline:false "sharded + kill/restart" in
  let inline_r, inline_idents = sharded ~inline:true "sharded inline reference" in
  let restarts = killed_r.Api.sh_report.Search.Coordinator.rp_restarts in
  let shard_topk_ok = ssigs inline_r = ssigs killed_r in
  let shard_corpus_ok = inline_idents <> [] && inline_idents = killed_idents in
  note "killed run: top-k %s, merged corpus %s the inline reference (%d restarts)"
    (if shard_topk_ok then "matches" else "DIVERGED from")
    (if shard_corpus_ok then "identical to" else "DIVERGED from")
    restarts;
  clear ();
  (* 1) Hardening: first encounter distills, re-encounter replays. *)
  let fault1 = miscompile () in
  let r1, s1 = run ~fault:fault1 "first encounter (faulted)" in
  let delivered1 = Validate.Differential.fault_count fault1 in
  let corpus_entries =
    match Validate.Corpus.load_result ~path:corpus_path with
    | Ok es -> List.length es
    | Error e -> failwith ("corpus load failed: " ^ Validate.Corpus.string_of_error e)
  in
  note "first run: %d miscompiles delivered, %d distilled, %d corpus entries on disk"
    delivered1 s1.Validate.Admit.distilled corpus_entries;
  let fault2 = miscompile () in
  let r2, s2 = run ~fault:fault2 "re-encounter (corpus replay)" in
  let delivered2 = Validate.Differential.fault_count fault2 in
  let identical_topk = sigs r1 = sigs r2 in
  let hardened =
    s1.Validate.Admit.rejected_differential > 0
    && s2.Validate.Admit.rejected_replay = s1.Validate.Admit.rejected_differential
    && s2.Validate.Admit.rejected_differential = 0
    && delivered2 = 0
  in
  note "re-encounter: %d replay rejections, %d differential, %d faults delivered (%s); \
        top-k %s"
    s2.Validate.Admit.rejected_replay s2.Validate.Admit.rejected_differential delivered2
    (if hardened then "differential never ran on the family" else "NOT HARDENED")
    (if identical_topk then "identical" else "DIVERGED");
  (* 2) Cheapness: replay vs differential over the zoo, same corpus. *)
  let zoo_corpus, _ = Validate.Corpus.open_file ~readonly:true corpus_path in
  let zoo_ops = List.map (fun e -> e.Zoo.operator) Zoo.all in
  let repeats = if smoke then 5 else 20 in
  let vs = Api.default_validation_valuations in
  let (), t_replay =
    time (fun () ->
        for _ = 1 to repeats do
          List.iter (fun op -> ignore (Validate.Corpus.replay zoo_corpus op)) zoo_ops
        done)
  in
  let (), t_diff =
    time (fun () ->
        for _ = 1 to repeats do
          List.iter
            (fun op ->
              match Validate.Differential.check op vs with Ok _ | Error _ -> ())
            zoo_ops
        done)
  in
  let replay_ratio = t_replay /. Float.max 1e-12 t_diff in
  let replay_cheap = replay_ratio <= 0.25 in
  note "zoo replay %.3f ms vs differential %.3f ms over %d ops x %d (%.1f%% %s)"
    (1000.0 *. t_replay) (1000.0 *. t_diff) (List.length zoo_ops) repeats
    (100.0 *. replay_ratio)
    (if replay_cheap then "<= 25% gate" else "OVER the 25% gate");
  Sys.remove corpus_path;
  gates
    [
      holds "re-encounter rejected by replay alone" hardened;
      holds "re-encounter top-k identical" identical_topk;
      at_most "replay cost <= 25% of differential" replay_ratio 0.25;
      gate "a killed shard was restarted" ~read:(string_of_int restarts) ~bound:">= 1"
        (restarts >= 1);
      holds "killed sharded top-k = inline reference" shard_topk_ok;
      holds "killed sharded corpus = inline reference" shard_corpus_ok;
    ]

(* --- serve: the operator daemon under load ------------------------------------- *)

(* The syno-as-a-service contract (lib/serve), measured end to end over
   the real CLI binary and Unix-domain socket: cached hits must
   amortize the lower+verify+validate pipeline by >= 10x; a 2x
   open-loop overload must be shed with typed [overloaded] responses
   while accepted requests hold their deadlines and queue gauges stay
   within their bounds; a SIGKILLed daemon must restart warm from its
   persisted cache; a poisoned operator — an interpreter backend or the
   specialized kernel the daemon serves — must produce a typed error,
   then a replay rejection on re-encounter, with the daemon still
   serving; and SIGTERM must drain to exit 0 with every in-flight
   request answered before EOF.  The smoke variant runs inside
   `dune runtest` via the serve-smoke alias. *)

let serve_bench ~smoke () =
  section (Printf.sprintf "Operator daemon (Serve)%s" (if smoke then " [smoke]" else ""));
  let module P = Serve.Protocol in
  let module C = Serve.Client in
  (* The daemon is the *real* binary, spawned fork+exec (never a bare
     fork: this bench process may hold live domains from earlier
     experiments, which do not survive a fork). *)
  let cli =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
      (Filename.concat "bin" "syno_cli.exe")
  in
  let dir = Filename.temp_file "syno_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "sock" in
  let cache_path = Filename.concat dir "cache.snap" in
  let corpus_path = Filename.concat dir "bugs.corpus" in
  let workers = 2 in
  let max_depth = 8 in
  let max_inflight_bytes = 4 * 1024 * 1024 in
  (* Any daemon we spawn is tracked until reaped, and force-killed on
     every exit path — a gate failure must not leave an orphan serving
     on a stale temp socket. *)
  let live = ref [] in
  let spawn_daemon () =
    let args =
      [ cli; "serve"; "--socket"; sock; "--cache"; cache_path; "--cache-every"; "1";
        "--corpus"; corpus_path; "--max-queue"; string_of_int max_depth; "--workers";
        string_of_int workers; "--drain-grace"; "30" ]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid = Unix.create_process cli (Array.of_list args) Unix.stdin devnull Unix.stderr in
    Unix.close devnull;
    live := pid :: !live;
    pid
  in
  let reaped pid = live := List.filter (fun p -> p <> pid) !live in
  let kill_live () =
    List.iter
      (fun p ->
        (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ())
      !live;
    live := []
  in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("serve bench: " ^ m)) fmt in
  let must = function Ok v -> v | Error e -> fail "%s" e in
  let connect () = must (C.connect ~timeout:10.0 sock) in
  let ids = ref 0 in
  let request ?(params = []) verb =
    incr ids;
    { P.rq_id = Printf.sprintf "r%d" !ids; rq_verb = verb; rq_params = params }
  in
  let call c ?params verb = must (C.call ~timeout:60.0 c (request ?params verb)) in
  let ok_param resp key =
    match resp with
    | P.Resp_ok ps -> List.assoc_opt key ps
    | P.Resp_error { err_kind; err_detail; _ } ->
        fail "unexpected error %s (%s)" err_kind err_detail
  in
  let err_kind = function P.Resp_error { err_kind; _ } -> err_kind | P.Resp_ok _ -> "ok" in
  Fun.protect ~finally:kill_live @@ fun () ->
  (* --- Phase 1: cold vs cached zoo pass -------------------------------- *)
  let pid_a = spawn_daemon () in
  let conn = ref (connect ()) in
  let zoo_ops =
    let names = List.map (fun e -> e.Zoo.name) Zoo.conv_like in
    if smoke then List.filteri (fun i _ -> i < 3) names else names
  in
  let micros_of resp =
    match ok_param resp "micros" with
    | Some m -> float_of_string m
    | None -> fail "response without micros"
  in
  (* Distinct zoo names can canonicalize to the same operator signature
     (the cache key), so a later entry may warm-hit on the cold pass;
     measure the speedup only over the genuinely-cold set. *)
  let zoo_ops, cold_micros =
    List.fold_left
      (fun (cold_ops, acc) op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        match ok_param resp "cached" with
        | Some "0" -> (op :: cold_ops, acc +. micros_of resp)
        | _ -> (cold_ops, acc))
      ([], 0.0) zoo_ops
    |> fun (ops, acc) -> (List.rev ops, acc)
  in
  let warm_micros =
    List.fold_left
      (fun acc op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        (match ok_param resp "cached" with
        | Some "1" -> ()
        | _ -> fail "warm pass: %s was not a cache hit" op);
        acc +. micros_of resp)
      0.0 zoo_ops
  in
  let speedup = cold_micros /. Float.max 1.0 warm_micros in
  let cache_gate = speedup >= 10.0 in
  note "cache: %d operators, cold %.0fus, warm %.0fus, speedup %.0fx (gate >= 10x: %s)"
    (List.length zoo_ops) cold_micros warm_micros speedup (if cache_gate then "ok" else "FAIL");
  (* --- Phase 2: 2x open-loop overload ----------------------------------- *)
  (* Size the offered rate from the measured cold service time: 2x the
     daemon's worker capacity, uncacheable requests only (cache=0), so
     every accepted request costs the full pipeline. *)
  let service =
    let reps = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (call !conn ~params:[ ("op", "conv2d"); ("cache", "0") ] P.Eval)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let duration = if smoke then 1.5 else 5.0 in
  let rate = 2.0 *. float_of_int workers /. Float.max 1e-4 service in
  let total = max 30 (min (if smoke then 150 else 600) (int_of_float (rate *. duration))) in
  let interval = 1.0 /. rate in
  let deadline = 2.0 in
  let statc = connect () in
  let send_times : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let ok_lat = ref [] in
  let shed = ref 0 and timeouts = ref 0 and others = ref 0 and received = ref 0 in
  let max_depth_seen = ref 0 and max_bytes_seen = ref 0 in
  let record line =
    incr received;
    match P.parse_response line with
    | Error e -> fail "bad response: %s" e
    | Ok (id, resp) -> (
        match resp with
        | P.Resp_ok _ -> (
            match Hashtbl.find_opt send_times id with
            | Some t -> ok_lat := (Unix.gettimeofday () -. t) :: !ok_lat
            | None -> ())
        | P.Resp_error { err_kind = "overloaded"; _ } -> incr shed
        | P.Resp_error { err_kind = "timeout"; _ } -> incr timeouts
        | P.Resp_error _ -> incr others)
  in
  let poll_status () =
    let resp = call statc P.Status in
    let gauge key cell =
      match ok_param resp key with
      | Some v -> cell := max !cell (int_of_string v)
      | None -> ()
    in
    gauge "queue_depth" max_depth_seen;
    gauge "inflight_bytes" max_bytes_seen
  in
  let sent = ref 0 in
  let start = Unix.gettimeofday () in
  let next_send = ref start and next_status = ref start in
  while !sent < total do
    let now = Unix.gettimeofday () in
    if now >= !next_status then begin
      next_status := now +. 0.25;
      poll_status ()
    end;
    if now >= !next_send then begin
      let id = Printf.sprintf "o%d" !sent in
      let rq =
        {
          P.rq_id = id;
          rq_verb = P.Eval;
          rq_params =
            [ ("op", "conv2d"); ("cache", "0"); ("deadline", Printf.sprintf "%g" deadline) ];
        }
      in
      Hashtbl.replace send_times id now;
      must (C.send_line !conn (P.render_request rq));
      incr sent;
      next_send := !next_send +. interval
    end
    else
      match C.recv_line ~timeout:(Float.max 0.0005 (Float.min 0.002 (!next_send -. now))) !conn with
      | Ok line -> record line
      | Error "timeout" -> ()
      | Error e -> fail "overload recv: %s" e
  done;
  let tail_deadline = Unix.gettimeofday () +. deadline +. 20.0 in
  while !received < total && Unix.gettimeofday () < tail_deadline do
    match C.recv_line ~timeout:0.2 !conn with
    | Ok line -> record line
    | Error "timeout" -> ()
    | Error e -> fail "overload tail recv: %s" e
  done;
  poll_status ();
  let lats = Array.of_list !ok_lat in
  Array.sort compare lats;
  let pct p =
    if Array.length lats = 0 then 0.0
    else lats.(min (Array.length lats - 1) (int_of_float (p *. float_of_int (Array.length lats - 1))))
  in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  let ok_count = Array.length lats in
  let all_answered = !received = total in
  let overload_gate =
    !shed > 0 && ok_count > 0 && all_answered
    && p99 <= deadline +. 1.0
    && !max_depth_seen <= max_depth
    && !max_bytes_seen <= max_inflight_bytes
  in
  note
    "overload: offered %d at %.0f req/s (2x capacity), ok %d, shed %d, timeout %d, other %d"
    total rate ok_count !shed !timeouts !others;
  note "overload: ok p50 %.3fs, p99 %.3fs (deadline %.1fs), depth<=%d, bytes<=%d (gate: %s)"
    p50 p99 deadline !max_depth_seen !max_bytes_seen
    (if overload_gate then "ok" else "FAIL");
  (* --- Phase 3: SIGKILL mid-load, warm restart --------------------------- *)
  for i = 1 to 8 do
    let rq =
      {
        P.rq_id = Printf.sprintf "k%d" i;
        rq_verb = P.Eval;
        rq_params = [ ("op", "conv2d"); ("cache", "0") ];
      }
    in
    must (C.send_line !conn (P.render_request rq))
  done;
  Unix.sleepf 0.1;
  Unix.kill pid_a Sys.sigkill;
  (match Unix.waitpid [] pid_a with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> reaped pid_a
  | _, _ -> fail "daemon did not die of SIGKILL");
  C.close !conn;
  C.close statc;
  let t_restart = Unix.gettimeofday () in
  let pid_b = spawn_daemon () in
  conn := connect ();
  let first_pass_hits =
    List.fold_left
      (fun acc op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        match ok_param resp "cached" with Some "1" -> acc + 1 | _ -> acc)
      0 zoo_ops
  in
  let recovery = Unix.gettimeofday () -. t_restart in
  let restart_gate = first_pass_hits > 0 in
  note "restart: SIGKILL mid-load, warm in %.2fs, %d/%d first-pass cache hits (gate: %s)"
    recovery first_pass_hits (List.length zoo_ops)
    (if restart_gate then "ok" else "FAIL");
  (* --- Phase 4: poisoned operator --------------------------------------- *)
  let poison_kind =
    err_kind
      (call !conn
         ~params:
           [ ("op", "conv1x1"); ("cache", "0"); ("fault_backend", "einsum");
             ("fault_rate", "1"); ("fault_seed", "3") ]
         P.Eval)
  in
  let alive = match call !conn P.Ping with P.Resp_ok _ -> true | P.Resp_error _ -> false in
  let replay_kind = err_kind (call !conn ~params:[ ("op", "conv1x1"); ("cache", "0") ] P.Eval) in
  let poison_gate =
    poison_kind = "backend_mismatch" && alive && replay_kind = "counterexample"
  in
  note "poison: typed %s, daemon alive %b, re-encounter rejected as %s (gate: %s)" poison_kind
    alive replay_kind
    (if poison_gate then "ok" else "FAIL");
  (* The served kernel itself, miscompiled: operator1 certifies at the
     default valuation, so the specialized backend runs and is
     cross-checked.  Not conv2d: phase 5 drains real conv2d work, which
     a corpus entry would turn into instant replay rejections. *)
  let spec_kind =
    err_kind
      (call !conn
         ~params:
           [ ("op", "operator1"); ("cache", "0"); ("fault_backend", "specialize");
             ("fault_rate", "1") ]
         P.Eval)
  in
  let spec_replay_kind =
    err_kind (call !conn ~params:[ ("op", "operator1"); ("cache", "0") ] P.Eval)
  in
  let spec_poison_gate =
    spec_kind = "backend_mismatch" && spec_replay_kind = "counterexample"
  in
  note "poison: served kernel typed %s, re-encounter rejected as %s (gate: %s)" spec_kind
    spec_replay_kind
    (if spec_poison_gate then "ok" else "FAIL");
  (* --- Phase 5: SIGTERM graceful drain ----------------------------------- *)
  let k_drain = if smoke then 4 else 10 in
  let drain_ids = List.init k_drain (fun i -> Printf.sprintf "d%d" i) in
  List.iter
    (fun id ->
      let rq =
        { P.rq_id = id; rq_verb = P.Eval; rq_params = [ ("op", "conv2d"); ("cache", "0") ] }
      in
      must (C.send_line !conn (P.render_request rq)))
    drain_ids;
  Unix.sleepf 0.15;
  Unix.kill pid_b Sys.sigterm;
  let answered = ref [] in
  let clean_eof = ref false in
  let rec read_all () =
    match C.recv_line ~timeout:60.0 !conn with
    | Ok line -> (
        match P.parse_response line with
        | Ok (id, _) ->
            answered := id :: !answered;
            read_all ()
        | Error e -> fail "drain response: %s" e)
    | Error "eof" -> clean_eof := true
    | Error e -> note "drain: connection ended uncleanly (%s)" e
  in
  read_all ();
  C.close !conn;
  let drain_exit =
    match Unix.waitpid [] pid_b with
    | _, Unix.WEXITED c ->
        reaped pid_b;
        c
    | _, Unix.WSIGNALED s -> -s
    | _, Unix.WSTOPPED s -> -s
  in
  let drain_answered = List.for_all (fun id -> List.mem id !answered) drain_ids in
  let drain_gate = drain_answered && !clean_eof && drain_exit = 0 in
  note "drain: %d in flight at SIGTERM, %d answered, clean EOF %b, exit %d (gate: %s)" k_drain
    (List.length !answered) !clean_eof drain_exit
    (if drain_gate then "ok" else "FAIL");
  (* Cleanup. *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  gates
    [
      at_least "cached hits >= 10x faster than cold evals" speedup 10.0;
      holds "2x overload shed within deadline and queue bounds" overload_gate;
      gate "SIGKILLed daemon restarts warm" ~read:(string_of_int first_pass_hits)
        ~bound:">= 1 first-pass hit" restart_gate;
      holds "poisoned operator contained and replayed" poison_gate;
      holds "miscompiled served kernel caught and replayed" spec_poison_gate;
      holds "SIGTERM drains every in-flight request to exit 0" drain_gate;
    ]

(* --- Proof-guided kernel specialization ---------------------------------------- *)

(* Times the specializing compiler end to end: over the whole catalog,
   the certified specialized executor must beat the best interpreter
   (einsum program or the guarded staged loops of [Guarded_staged]) by
   >= 3.0x geomean in the full run (>= 1.4x in the smoke, whose small
   shapes are mostly border).  Each operator also prints, ungated,
   [Staged_exec.forward] (the same nests with every access clipped)
   over the specialized time: what the certificate alone buys.  Then
   the train path's reference backward at the proxy-layer shapes.  What
   the compiler guarantees (bit-identity with the staged interpreter,
   also with non-finite values, exact clipping, rejection of seeded
   clip-set corruptions, allocation-free certification) is
   test_kernel's "bit-identity", "certification" and "border" groups,
   and the backward's adjoint identity test_lower's.  The smoke variant
   runs inside `dune runtest` via the kernel-smoke alias. *)

let kernel_bench ~smoke () =
  section
    (Printf.sprintf "Proof-guided kernel specialization (Lower.Specialize)%s"
       (if smoke then " [smoke]" else ""));
  let module Verify = Analysis.Verify in
  let module Regions = Analysis.Regions in
  let module Certify = Analysis.Certify in
  let module Staged = Lower.Staged_exec in
  let module Specialize = Lower.Specialize in
  let conv_v =
    if smoke then Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()
    else Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 ()
  in
  let matmul_v =
    if smoke then Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7
    else Zoo.Vars.matmul_valuation ~m:64 ~n:64 ~k:64
  in
  let repeats = if smoke then 3 else 10 in
  (* The warm-up run also sizes the repeat count: slow interpreter
     baselines (full-shape einsum materializes the whole gather) get
     fewer repeats so the full run stays in minutes, fast kernels get
     the full count for a stable mean. *)
  let mean_seconds f =
    let _, t_warm = time (fun () -> ignore (f ())) in
    let reps =
      max 1 (min repeats (int_of_float (0.6 /. Float.max 1e-9 t_warm)))
    in
    let (), t = time (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    t /. float_of_int reps
  in
  (* 1) Per-operator: compile all three executors, certify the plan and
     time each forward. *)
  let speedups =
    List.filter_map
      (fun (e : Zoo.entry) ->
        let op = e.Zoo.operator in
        let v =
          if Option.is_some (Verify.program_opt op conv_v) then conv_v else matmul_v
        in
        let staged = Staged.compile op v in
        let cert = Regions.of_staged staged in
        let compiled = Staged.reference staged in
        let rng = Nd.Rng.create ~seed:17 in
        let input =
          Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0
            (Lower.Reference.input_shape compiled)
        in
        let weights = Lower.Reference.init_weights compiled rng in
        let ep = Lower.Einsum_program.compile op v in
        let t_einsum =
          mean_seconds (fun () -> Lower.Einsum_program.forward ep ~input ~weights)
        in
        let guarded = Guarded_staged.compile staged in
        let t_staged =
          mean_seconds (fun () -> Guarded_staged.forward guarded ~input ~weights)
        in
        let t_full_clip = mean_seconds (fun () -> Staged.forward staged ~input ~weights) in
        match Certify.compile staged cert.Regions.rc_plan with
        | Error k ->
            note "%-28s certification REJECTED: %s" e.Zoo.name (Robust.Guard.kind_label k);
            None
        | Ok sp ->
            let t_spec = mean_seconds (fun () -> Specialize.forward sp ~input ~weights) in
            let s = Float.min t_einsum t_staged /. Float.max 1e-12 t_spec in
            let full_clip = t_full_clip /. Float.max 1e-12 t_spec in
            note "%-28s einsum %8.3f ms  staged %8.3f ms  spec %8.3f ms  %5.2fx  \
                  interior %.3f  full-clip/spec %5.2fx"
              e.Zoo.name (1000.0 *. t_einsum) (1000.0 *. t_staged) (1000.0 *. t_spec) s
              cert.Regions.rc_interior_fraction full_clip;
            Some (s, full_clip))
      Zoo.all
  in
  let geomean l =
    exp (List.fold_left (fun a s -> a +. log s) 0.0 l /. float_of_int (max 1 (List.length l)))
  in
  let geomean_speedup = geomean (List.map fst speedups) in
  let speedup_gate = if smoke then 1.4 else 3.0 in
  note "geomean speedup vs best interpreter over %d operators: %.2fx (gate >= %.1fx)"
    (List.length speedups) geomean_speedup speedup_gate;
  note "geomean Staged_exec.forward / Specialize.forward: %.2fx (not gated)"
    (geomean (List.map snd speedups));
  (* 2) The train path's reference backward at the two proxy-layer
     shapes [Api.proxy_layer] trains. *)
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun c_in ->
          let compiled =
            Lower.Reference.compile e.Zoo.operator
              (Zoo.Vars.conv_valuation ~n:Syno.Api.proxy_batch_size ~c_in ~c_out:8 ~hw:10 ~k:3
                 ~g:2 ~s:2 ())
          in
          let rng = Nd.Rng.create ~seed:29 in
          let input =
            Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0
              (Lower.Reference.input_shape compiled)
          in
          let weights = Lower.Reference.init_weights compiled rng in
          let grad_out =
            Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0
              (Lower.Reference.output_shape compiled)
          in
          note "%-28s proxy backward c%d->8 hw10 n%d: %8.3f ms" e.Zoo.name c_in
            Syno.Api.proxy_batch_size
            (1000.0
            *. mean_seconds (fun () ->
                   Lower.Reference.backward compiled ~input ~weights ~grad_out)))
        [ 4; 8 ])
    [ Zoo.conv2d; Zoo.operator1 ];
  gates
    [
      at_least (Printf.sprintf "geomean speedup >= %.1fx" speedup_gate) geomean_speedup
        speedup_gate;
    ]

(* --- Differential validation: per-backend forward cost ------------------------ *)

(* What each backend of [Validate.Differential] costs on the keys a cold
   [syno serve] request evaluates: the distinct conv-like zoo operators
   at n1, c_in and c_out in {4, 6, 8}, hw 4..8 and k in {1, 3}, each
   shape in four (g, s) variants, wherever the verifier finds no
   violation.  Per key, the inputs are drawn as the daemon draws them
   and each backend's forward is timed once, compile excluded.  That
   the backends agree on these keys, and that every seeded mutant of
   the compiled nest is caught on one, is test_validate's "key grid"
   cases. *)
let differential_bench () =
  section "Differential validation backends (forward ms per key)";
  let module Reference = Lower.Reference in
  let module Einsum_program = Lower.Einsum_program in
  let module Staged = Lower.Staged_exec in
  let module Specialize = Lower.Specialize in
  let seen = Hashtbl.create 16 in
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
    | Some _ -> [ (e.Zoo.operator, v) ]
  in
  let t_ref = ref 0.0 and t_gather = ref 0.0 and t_einsum = ref 0.0 in
  let t_staged = ref 0.0 and t_spec = ref 0.0 and n_spec = ref 0 in
  List.iter
    (fun (op, v) ->
      let compiled = Reference.compile op v in
      let rng =
        Nd.Rng.create
          ~seed:(Validate.Differential.derive_seed ~seed:0 (Graph.operator_signature op))
      in
      let weights = Reference.init_weights compiled rng in
      let input =
        Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.input_shape compiled)
      in
      let timed acc f = acc := !acc +. snd (time f) in
      timed t_ref (fun () -> Reference.forward compiled ~input ~weights);
      let ep = Einsum_program.compile op v in
      timed t_gather (fun () -> Einsum_program.gather ep ~input);
      timed t_einsum (fun () -> Einsum_program.forward ep ~input ~weights);
      let st = Staged.compile op v in
      timed t_staged (fun () -> Staged.forward st ~input ~weights);
      match Analysis.Certify.specialize st with
      | Ok (Some sp) ->
          incr n_spec;
          timed t_spec (fun () -> Specialize.forward sp ~input ~weights)
      | Ok None | Error _ -> ())
    keys;
  let n = List.length keys in
  let per_key t count = 1000.0 *. t /. float_of_int (max 1 count) in
  note "%d keys over %d operators" n (List.length ops);
  note "reference  %7.3f ms/key" (per_key !t_ref n);
  note "einsum     %7.3f ms/key (gather %.3f ms/key)" (per_key !t_einsum n) (per_key !t_gather n);
  note "staged     %7.3f ms/key" (per_key !t_staged n);
  note "specialize %7.3f ms/key over the %d keys that certify" (per_key !t_spec !n_spec) !n_spec

(* A [Gated] experiment exits 1 naming each failed gate, and also runs
   as [<name>-smoke], at sizes small enough for every `dune runtest`; a
   [Measured] one only prints. *)
type experiment = Measured of (unit -> unit) | Gated of (smoke:bool -> unit -> unit)

let experiments =
  [
    ("fig5", Measured fig5);
    ("fig6", Measured fig6);
    ("fig8", Measured fig8);
    ("fig9", Measured fig9);
    ("fig10", Measured fig10);
    ("tab3", Measured tab3);
    ("ablation", Measured ablation);
    ("micro", Measured micro);
    ("par", Gated par_bench);
    ("robust", Measured robust_bench);
    ("validate", Gated validate_bench);
    ("analysis", Gated analysis_bench);
    ("cancel", Gated cancel_bench);
    ("shard", Gated shard_bench);
    ("cegis", Gated cegis_bench);
    ("serve", Gated serve_bench);
    ("kernel", Gated kernel_bench);
    ("differential", Measured differential_bench);
  ]

let runnable =
  List.concat_map
    (fun (name, e) ->
      match e with
      | Measured f -> [ (name, f) ]
      | Gated f -> [ (name, f ~smoke:false); (name ^ "-smoke", f ~smoke:true) ])
    experiments

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  (match List.filter (fun n -> not (List.mem_assoc n runnable)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment %s (available: %s)\n" (String.concat " " unknown)
        (String.concat " " (List.map fst runnable));
      exit 2);
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name runnable) ()) requested;
  Format.printf "@.[bench] completed in %.1fs@." (Unix.gettimeofday () -. t0)

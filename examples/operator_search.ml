(* Operator synthesis end to end: run the MCTS-guided search over the
   convolution signature, then train the best discovered operator
   against the standard convolution on the synthetic vision task.

   Run with: dune exec examples/operator_search.exe *)

module Graph = Pgraph.Graph
module Api = Syno.Api
module Zoo = Syno.Zoo

let () =
  let rng = Nd.Rng.create ~seed:2024 in
  Format.printf "=== Searching for conv replacements (Algorithm 1 + MCTS) ===@.";
  let t0 = Unix.gettimeofday () in
  let { Api.candidates; _ } =
    Api.search_conv_operators_run ~iterations:2000 ~max_prims:8 ~flops_budget_ratio:1.0 ~rng
      ~valuations:Api.default_search_valuations ()
  in
  Format.printf "found %d distinct canonical operators in %.1fs@.@."
    (List.length candidates)
    (Unix.gettimeofday () -. t0);
  let top = List.filteri (fun i _ -> i < 8) candidates in
  List.iteri
    (fun i c ->
      Format.printf "#%d reward=%.2f flops=%d params=%d@.    %s@." (i + 1) c.Api.reward
        c.Api.flops c.Api.params c.Api.signature)
    top;

  Format.printf "@.=== Training the best candidates on the synthetic vision task ===@.";
  let data_rng = Nd.Rng.create ~seed:7 in
  let data =
    Dataset.Synth_vision.generate data_rng ~classes:4 ~channels:4 ~size:10
      ~train_batches:10 ~eval_batches:4 ~batch_size:16 ()
  in
  let train name op =
    let entry = { Zoo.name; description = name; operator = op } in
    let h = Api.train_entry ~rng:(Nd.Rng.create ~seed:5) entry data in
    Format.printf "  %-22s eval accuracy %.3f@." name h.Nn.Train.final_eval_accuracy;
    h.Nn.Train.final_eval_accuracy
  in
  let conv_acc = train "conv2d (baseline)" Zoo.conv2d.Zoo.operator in
  (* The analytic proxy only guides the search; like the paper, the
     final ranking comes from actually training the top candidates. *)
  let top3 = List.filteri (fun i _ -> i < 3) top in
  (match
     List.map
       (fun (c : Api.candidate) ->
         (train (Printf.sprintf "candidate (reward %.2f)" c.Api.reward) c.Api.operator, c))
       top3
   with
  | [] -> Format.printf "no candidate found@."
  | trained ->
      let best_acc, best =
        List.fold_left
          (fun (a, b) (a', b') -> if a' > a then (a', b') else (a, b))
          (List.hd trained) (List.tl trained)
      in
      Format.printf "@.best candidate after training: %+.3f accuracy vs conv@."
        (best_acc -. conv_acc);
      Format.printf "  %s@." best.Api.signature);

  Format.printf "@.=== Latency of the discovered operators on ResNet-18 ===@.";
  match top with
  | best :: _ ->
      let entry =
        { Zoo.name = "discovered"; description = ""; operator = best.Api.operator }
      in
      List.iter
        (fun platform ->
          let s =
            Api.speedup entry Backbones.Models.resnet18 Perf.Compiler_model.tvm platform
          in
          Format.printf "  %-12s TVM speedup %.2fx@." platform.Perf.Platform.name s)
        Perf.Platform.all
  | [] -> ()

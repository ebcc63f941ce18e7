(* kernel: the generated code, the compiler that produces it, and the
   training path that runs it.

   Set-up compiles every catalog operator (every conv-shaped zoo
   operator, plus matmul) through the proof-to-speed pipeline at full
   shape: staged program, region certificate, translation validation
   ([Api.specialize_operator]).  It also builds a seeded synthetic vision
   set and one proxy model for each of conv2d and operator1, substituted
   into the proxy backbone with specialization [`Auto].

   An operation is one specialized forward pass of one catalog operator
   (c32/hw28 convolutions, a 64^3 matmul) or one [Nn.Model.train_step]
   of one proxy model, whose forward runs the specialized kernel and
   whose backward stays the reference one.  A run makes interleaved
   passes over all of them and takes each operation's best time.  The
   padded convolutions dominate. *)

open Work
module Zoo = Syno.Zoo
module Api = Syno.Api

let passes ctx = if ctx.smoke then 1 else sized ctx ~per_second:0.15
let steps_per_pass = 2

let conv_v ctx =
  if ctx.smoke then Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()
  else Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 ()

let matmul_v ctx =
  if ctx.smoke then Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7 else Zoo.Vars.matmul_valuation ~m:64 ~n:64 ~k:64

(* Where the output is also checked against the reference interpreter,
   which is far too slow at full shape. *)
let small_conv_v = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()
let small_matmul_v = Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7
let tolerance = Validate.Differential.default_config.Validate.Differential.tolerance

type case = {
  name : string;
  op : Pgraph.Graph.operator;
  v : Shape.Valuation.t;
  input : Nd.Tensor.t;
  weights : Nd.Tensor.t list;
  sp : Lower.Specialize.t;
}

let catalog = List.map (fun name -> List.find (fun e -> e.Zoo.name = name) Zoo.all) Spec.kernel_ops

let compile op v =
  match Api.specialize_operator ~mode:`On op v with
  | Ok (Some sp) -> sp
  | Ok None -> failwith "specialization declined"
  | Error k -> failwith ("certification rejected: " ^ Robust.Guard.kind_label k)

let inputs ctx name op v =
  let compiled = Lower.Reference.compile op v in
  let rng = seeded ctx name in
  let weights = Lower.Reference.init_weights compiled rng in
  (Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled), weights)

let catalog_cases ctx =
  Array.of_list
    (List.map
       (fun (e : Zoo.entry) ->
         let op = e.Zoo.operator in
         let v = if e.Zoo.name = "matmul" then matmul_v ctx else conv_v ctx in
         let sp = compile op v in
         let input, weights = inputs ctx e.Zoo.name op v in
         { name = e.Zoo.name; op; v; input; weights; sp })
       catalog)

let bits t = Array.map Int64.bits_of_float (Nd.Tensor.unsafe_data t)
let forward k = Lower.Specialize.forward k.sp ~input:k.input ~weights:k.weights

(* [Api.specialize_operator ~mode:`On], one span per pipeline stage. *)
let traced_compile tr k =
  Trace.span tr "lower.specialize_compile" (fun () ->
      let staged = Trace.span tr "lower.staged_compile" (fun () -> Lower.Staged_exec.compile k.op k.v) in
      let cert = Trace.span tr "analysis.regions" (fun () -> Analysis.Regions.of_staged staged) in
      match
        Trace.span tr "analysis.certify" (fun () -> Analysis.Certify.compile staged cert.Analysis.Regions.rc_plan)
      with
      | Ok sp -> sp
      | Error e -> failwith ("certification rejected: " ^ Robust.Guard.kind_label e))

let within_tolerance a r =
  Array.length a = Array.length r
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tolerance *. (1.0 +. Float.abs y)) a r

(* --- The proxy models ------------------------------------------------------------ *)

let entries = [ Zoo.conv2d; Zoo.operator1 ]
let batch = 16 (* the batch [Api.proxy_layer] compiles its operators for *)
let train_batches ctx = if ctx.smoke then 2 else 12

type model = {
  entry : Zoo.entry;
  model : Nn.Model.t;
  opt : Nn.Optimizer.t;
  mutable steps : int;  (** steps taken; the next one trains on batch [steps mod train_batches] *)
}

let proxy_models ctx =
  let data =
    Dataset.Synth_vision.generate (seeded ctx "data") ~classes:4 ~channels:4 ~size:10
      ~train_batches:(train_batches ctx) ~eval_batches:1 ~batch_size:batch ()
  in
  let make (entry : Zoo.entry) =
    {
      entry;
      model =
        Backbones.Proxy.vision_model (seeded ctx entry.Zoo.name)
          ~make_op:(fun rng stage -> Api.proxy_layer ~specialize:`Auto entry rng stage)
          ~in_channels:data.Dataset.Synth_vision.channels ~channels:8
          ~classes:data.Dataset.Synth_vision.classes ~size:data.Dataset.Synth_vision.size ();
      opt = Nn.Optimizer.sgd ~momentum:0.9 ~weight_decay:1e-4 ~lr:0.1 ();
      steps = 0;
    }
  in
  (Array.of_list data.Dataset.Synth_vision.train, Array.of_list (List.map make entries))

let next_batch batches m = batches.(m.steps mod Array.length batches)

(* One train step on the model's next batch; its loss. *)
let step batches m =
  let b = next_batch batches m in
  m.steps <- m.steps + 1;
  (Nn.Model.train_step m.model m.opt ~images:b.Nn.Train.images ~labels:b.Nn.Train.labels).Nn.Model.loss

(* --- The workload ----------------------------------------------------------------- *)

let run ctx =
  (* One domain: the numbers measure the generated code, not how the two
     cores happen to be shared at the time. *)
  Par.Pool.set_default_domains 1;
  let c = checks () in
  let log = setups () in
  let set_up () = (catalog_cases ctx, proxy_models ctx) in
  let cases, (batches, models) = Work.set_up log set_up in
  let n = Array.length cases and nm = Array.length models in
  let fwd = Array.make n [||] and steps = Array.make nm [||] in
  let first = Array.make n [||] and losses = Array.make nm [] in
  let compile_s = ref infinity and allocs = ref [] in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 and forward_probe_s = ref 0.0 in
  let tr = ctx.trace in
  Trace.track tr ~tid:0 ~name:"kernel pass" ~timed:true;
  Trace.track tr ~tid:1 ~name:"replay: inference forward" ~timed:false;
  (* Each operation is timed after a settled heap; in the traced pass
     every layer call is also a span. *)
  let train_step ~traced_pass j m =
    let a0 = Nd.Tensor.allocations () in
    let loss, t =
      time_settled (fun () ->
          if traced_pass then Trace.span tr "nn.train_step" (fun () -> step batches m) else step batches m)
    in
    allocs := float_of_int (Nd.Tensor.allocations () - a0) :: !allocs;
    losses.(j) <- loss :: losses.(j);
    check c (Float.is_finite loss) "kernel: %s train loss is not finite" m.entry.Zoo.name;
    t
  in
  for pass = 0 to passes ctx - 1 do
    let pass_compile = ref 0.0 and pass_s = ref 0.0 in
    Array.iteri
      (fun j k ->
        let _, tc = time_settled (fun () -> compile k.op k.v) in
        let out, t = time (fun () -> forward k) in
        fwd.(j) <- Array.append fwd.(j) [| t |];
        pass_compile := !pass_compile +. tc;
        pass_s := !pass_s +. tc +. t;
        if pass = 0 then first.(j) <- bits out
        else check c (bits out = first.(j)) "kernel %s: output changed between passes" k.name)
      cases;
    Array.iteri
      (fun j m ->
        for _ = 1 to steps_per_pass do
          let t = train_step ~traced_pass:false j m in
          steps.(j) <- Array.append steps.(j) [| t |];
          pass_s := !pass_s +. t
        done)
      models;
    compile_s := Float.min !compile_s !pass_compile;
    for _ = 1 to extra_setups ctx ~slots:(passes ctx) pass do
      ignore (Work.set_up log set_up)
    done;
    if traced ctx && pass = 0 then begin
      (* The inference forward on each traced step's batch, on an untimed
         track, estimates the forward part of the step. *)
      Array.iter
        (fun m ->
          for i = 0 to steps_per_pass - 1 do
            let images = batches.((m.steps + i) mod Array.length batches).Nn.Train.images in
            let (), tf =
              time (fun () -> Trace.span tr ~tid:1 "nn.forward" (fun () -> ignore (Nn.Model.logits m.model images)))
            in
            forward_probe_s := !forward_probe_s +. tf
          done)
        models;
      (* The same pass again, traced. *)
      Array.iteri
        (fun j k ->
          let out, t =
            time_settled (fun () ->
                let sp = traced_compile tr k in
                Trace.span tr ("lower.specialize." ^ k.name) (fun () ->
                    Lower.Specialize.forward sp ~input:k.input ~weights:k.weights))
          in
          traced_s := !traced_s +. t;
          check c (bits out = first.(j)) "kernel %s: traced output differs" k.name)
        cases;
      Array.iteri
        (fun j m ->
          for _ = 1 to steps_per_pass do
            traced_s := !traced_s +. train_step ~traced_pass:true j m
          done)
        models;
      untraced_s := !pass_s
    end
  done;
  (* At a small shape: bit-identical to the staged interpreter and within
     tolerance of the reference one.  (The traced run also checks the
     staged interpreter at full shape.) *)
  Array.iter
    (fun k ->
      let v = if k.name = "matmul" then small_matmul_v else small_conv_v in
      let input, weights = inputs ctx ("check-" ^ k.name) k.op v in
      let sp = compile k.op v in
      let spec = Lower.Specialize.forward sp ~input ~weights in
      let staged = Lower.Staged_exec.forward (Lower.Specialize.staged sp) ~input ~weights in
      check c (bits spec = bits staged) "kernel %s: specialized output not bit-identical to Staged_exec" k.name;
      let refr = Lower.Reference.forward (Lower.Reference.compile k.op v) ~input ~weights in
      check c
        (within_tolerance (Nd.Tensor.unsafe_data spec) (Nd.Tensor.unsafe_data refr))
        "kernel %s: specialized output outside tolerance of Reference" k.name)
    cases;
  (* The same seed replays the same losses, bit for bit, from fresh
     models. *)
  let _, fresh = proxy_models ctx in
  Array.iteri
    (fun j m ->
      let recorded = List.rev losses.(j) in
      let replayed = List.init (min 4 (List.length recorded)) (fun _ -> step batches m) in
      check c
        (List.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           replayed
           (List.filteri (fun i _ -> i < List.length replayed) recorded))
        "kernel: %s replayed train losses differ from the run's" m.entry.Zoo.name)
    fresh;
  let best_s = Array.append (Array.map best fwd) (Array.map best steps) in
  let metrics =
    end_to_end ~setup_s:(setup_metric log) ~rss_mb:(peak_rss_mb "self")
      ~ops_per_s:(float_of_int (Array.length best_s) /. Array.fold_left ( +. ) 0.0 best_s)
      ~samples:((n + (nm * steps_per_pass)) * passes ctx)
      ~latencies:best_s
  in
  let layer =
    if not (traced ctx) then []
    else begin
      (* The staged interpreter at full shape, on an untimed track: the
         baseline the specialized code replaces, and the bit-identity it
         must keep. *)
      Trace.track tr ~tid:2 ~name:"replay: staged interpreter" ~timed:false;
      let staged_s =
        Array.fold_left
          (fun acc k ->
            let out, t =
              time (fun () ->
                  Trace.span tr ~tid:2 "lower.staged" (fun () ->
                      Lower.Staged_exec.forward (Lower.Specialize.staged k.sp) ~input:k.input ~weights:k.weights))
            in
            check c (bits out = bits (forward k)) "kernel %s: specialized output not bit-identical to Staged_exec"
              k.name;
            acc +. t)
          0.0 cases
      in
      let ms name = metric (name ^ "_ms") (1000.0 *. Trace.self_s tr name) in
      let n_steps = Trace.calls tr "nn.train_step" in
      let per_step name s = metric ~samples:n_steps name (1000.0 *. s /. float_of_int n_steps) in
      let step_s = Trace.self_s tr "nn.train_step" in
      let forward_s = Float.min !forward_probe_s step_s in
      trace_metrics ctx ~overhead:(!traced_s /. !untraced_s)
      @ [
          metric ~samples:(passes ctx) "lower.catalog_compile_ms" (1000.0 *. !compile_s);
          ms "lower.staged_compile";
          ms "analysis.regions";
          ms "analysis.certify";
          metric "lower.staged_ms" (1000.0 *. staged_s);
        ]
      @ List.map (fun k -> ms ("lower.specialize." ^ k.name)) (Array.to_list cases)
      @ List.map
          (fun k ->
            let cert = Analysis.Regions.of_staged (Lower.Specialize.staged k.sp) in
            metric ("analysis.interior." ^ k.name) cert.Analysis.Regions.rc_interior_fraction)
          (Array.to_list cases)
      @ [
          per_step "nn.train_step_ms" step_s;
          per_step "nn.forward_ms" forward_s;
          per_step "nn.backward_opt_ms" (step_s -. forward_s);
          metric ~samples:(List.length !allocs) "nd.allocs_per_step" (Stats.median (Array.of_list !allocs));
        ]
    end
  in
  {
    checks = c;
    metrics = metrics @ layer;
    sizes =
      [
        ("operators", Json.Number (float_of_int n));
        ("conv", Json.String (if ctx.smoke then "n1.ci8.co8.hw10.k3.g2.s2" else "n1.ci32.co32.hw28.k3.g2.s2"));
        ("matmul", Json.String (if ctx.smoke then "6x5x7" else "64x64x64"));
        ("models", Json.List (List.map (fun e -> Json.String e.Zoo.name) entries));
        ("batch", Json.Number (float_of_int batch));
        ("steps_per_pass", Json.Number (float_of_int steps_per_pass));
        ("passes", Json.Number (float_of_int (passes ctx)));
        ("domains", Json.Number 1.0);
      ];
  }

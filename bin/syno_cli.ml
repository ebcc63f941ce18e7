(* The syno command-line tool.

     syno list                         catalog of built-in operators
     syno describe conv2d              pGraph, generated code, costs
     syno describe saved.syno          ... same for a saved operator
     syno search --iterations 2000     run the MCTS synthesis
     syno latency operator2 --model resnet18
     syno train operator1 --epochs 8

   Operators are saved and loaded in the Trace_io textual format. *)

module Size = Shape.Size
module Graph = Pgraph.Graph
module Trace_io = Pgraph.Trace_io
module Zoo = Syno.Zoo
module Api = Syno.Api
open Cmdliner

let default_valuation ~c_in ~c_out ~hw ~k ~g ~s =
  Zoo.Vars.conv_valuation ~n:1 ~c_in ~c_out ~hw ~k ~g ~s ()

(* Resolve an operator by zoo name or by file path. *)
let resolve name =
  match List.find_opt (fun e -> e.Zoo.name = name) Zoo.all with
  | Some e -> Ok (e.Zoo.name, e.Zoo.operator)
  | None ->
      if Sys.file_exists name then
        let ic = open_in name in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        Result.map (fun op -> (Filename.basename name, op)) (Trace_io.of_string text)
      else Error (Printf.sprintf "no such operator or file: %s" name)

(* Validated argument converters: a bad value fails at parse time with
   a one-line message naming the flag and the constraint, instead of an
   exception (or silent nonsense) deep inside the search. *)
let bounded_int ~what ~min =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | None -> Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" what s))
        | Some n when n < min ->
            Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min n))
        | Some n -> Ok n),
      Format.pp_print_int )

let positive_float ~what =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | None -> Error (`Msg (Printf.sprintf "%s: expected a number, got %S" what s))
        | Some v when not (v > 0.0 && Float.is_finite v) ->
            Error (`Msg (Printf.sprintf "%s must be > 0 and finite (got %g)" what v))
        | Some v -> Ok v),
      (fun ppf v -> Format.fprintf ppf "%g" v) )

(* A rate/probability: finite and within [0, 1] — "nan", "inf" and 1.5
   are all parse-time errors, not searches that silently never (or
   always) fault. *)
let unit_float ~what =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | None -> Error (`Msg (Printf.sprintf "%s: expected a number, got %S" what s))
        | Some v when not (Float.is_finite v && v >= 0.0 && v <= 1.0) ->
            Error (`Msg (Printf.sprintf "%s must be in [0, 1] (got %s)" what s))
        | Some v -> Ok v),
      (fun ppf v -> Format.fprintf ppf "%g" v) )

(* A plain integer, but the error names the flag (cmdliner's stock int
   converter reports only the value). *)
let any_int ~what =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | None -> Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" what s))
        | Some n -> Ok n),
      Format.pp_print_int )

(* A path we will create or read as a *file*: empty strings and
   existing directories die at parse time, instead of as an ENOENT /
   EISDIR exception after minutes of search. *)
let file_path ~what =
  Arg.conv
    ( (fun s ->
        if String.trim s = "" then
          Error (`Msg (Printf.sprintf "%s: path must not be empty" what))
        else if Sys.file_exists s && Sys.is_directory s then
          Error (`Msg (Printf.sprintf "%s: %s is a directory, expected a file path" what s))
        else Ok s),
      Format.pp_print_string )

(* train's --specialize mode: exactly the three values the proof-guided
   specialization pipeline accepts; junk fails at parse time. *)
let specialize_conv ~what =
  Arg.conv
    ( (fun s ->
        match Api.specialize_mode_of_string s with
        | Some m -> Ok m
        | None ->
            Error (`Msg (Printf.sprintf "%s: expected on, off or auto, got %S" what s))),
      fun ppf m -> Format.pp_print_string ppf (Api.specialize_mode_to_string m) )

(* Shared --domains flag: the search's root-parallel tree count and the
   default pool used by the einsum/staged executors (0 = auto-detect). *)
let domains_arg =
  let doc = "Worker domains for parallel evaluation (0 = auto-detect)." in
  Arg.(value & opt (bounded_int ~what:"--domains" ~min:0) 1 & info [ "domains" ] ~doc)

let resolve_domains d = if d <= 0 then Par.Pool.num_domains () else d

let shape_args =
  let open Term in
  let c_in = Arg.(value & opt int 64 & info [ "c-in" ] ~doc:"Input channels.") in
  let c_out = Arg.(value & opt int 64 & info [ "c-out" ] ~doc:"Output channels.") in
  let hw = Arg.(value & opt int 28 & info [ "hw" ] ~doc:"Spatial size.") in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Kernel/window size.") in
  let g = Arg.(value & opt int 2 & info [ "g" ] ~doc:"Group factor.") in
  let s = Arg.(value & opt int 2 & info [ "s" ] ~doc:"Shrink factor.") in
  const (fun c_in c_out hw k g s -> default_valuation ~c_in ~c_out ~hw ~k ~g ~s)
  $ c_in $ c_out $ hw $ k $ g $ s

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "%-28s %s@." "name" "description";
    List.iter
      (fun e -> Format.printf "%-28s %s@." e.Zoo.name e.Zoo.description)
      Zoo.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in operator catalog.")
    Term.(const run $ const ())

(* --- describe ---------------------------------------------------------------- *)

let describe_cmd =
  let run name valuation =
    match resolve name with
    | Error e ->
        prerr_endline e;
        1
    | Ok (name, op) ->
        Format.printf "== %s ==@.@.%a@.@." name Graph.pp_operator op;
        Format.printf "trace: %s@.@."
          (String.concat "; " (List.map Pgraph.Trace_io.prim_to_string op.Graph.op_trace));
        (try
           let ep = Lower.Einsum_program.compile op valuation in
           Format.printf "PyTorch-style:@.%s@." (Lower.Einsum_program.to_pytorch ep);
           Format.printf "TVM-TE-style:@.%s@." (Lower.Einsum_program.to_te ep);
           Format.printf "naive FLOPs %d, params %d@."
             (Pgraph.Flops.naive_flops op valuation)
             (Pgraph.Flops.params op valuation);
           let plan = Lower.Staging.optimize op valuation in
           Format.printf "staging:@.%a@.@." Lower.Staging.pp_plan plan;
           Format.printf "%-14s %-14s %12s@." "platform" "compiler" "latency";
           List.iter
             (fun platform ->
               List.iter
                 (fun compiler ->
                   Format.printf "%-14s %-14s %10.1fus@." platform.Perf.Platform.name
                     (Perf.Compiler_model.name compiler)
                     (Perf.Roofline.operator_time_us compiler platform op valuation))
                 Perf.Compiler_model.all)
             Perf.Platform.all
         with Failure msg ->
           Format.printf "(cannot instantiate at this valuation: %s)@." msg);
        0
  in
  let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OPERATOR") in
  Cmd.v
    (Cmd.info "describe" ~doc:"Show an operator's pGraph, generated code, and costs.")
    Term.(const run $ name_arg $ shape_args)

(* --- search ------------------------------------------------------------------ *)

(* Graceful shutdown: SIGINT/SIGTERM trip the root token; the search
   stops at the next iteration boundary, flushes its final checkpoint,
   and the partial top-k is reported before exiting with the
   conventional 128+SIGINT = 130.  The handler only flips an atomic
   (via [Cancel.cancel]), which is safe at signal time. *)
let install_shutdown_handlers root =
  let handle name signal =
    Sys.set_signal signal
      (Sys.Signal_handle (fun _ -> Robust.Cancel.cancel ~reason:name root))
  in
  handle "SIGINT" Sys.sigint;
  handle "SIGTERM" Sys.sigterm

let exit_interrupted = 130
let exit_failed_shard = 3

let print_candidates ~top ~save candidates =
  List.iteri
    (fun i c ->
      if i < top then begin
        Format.printf "#%-3d reward %.2f  flops %d  params %d%s@.     %s@." (i + 1)
          c.Api.reward c.Api.flops c.Api.params
          (if c.Api.quarantined then "  [quarantined]" else "")
          c.Api.signature;
        match save with
        | Some dir ->
            let path = Filename.concat dir (Printf.sprintf "candidate_%02d.syno" (i + 1)) in
            let oc = open_out path in
            output_string oc (Trace_io.to_string c.Api.operator);
            close_out oc;
            Format.printf "     saved to %s@." path
        | None -> ()
      end)
    candidates

(* Coordinator-mode dispatch: fork [shards] workers, supervise, merge.
   The merged memo lives in per-shard files next to --checkpoint, which
   is why the flag is required here. *)
let run_sharded ~iterations ~max_prims ~budget_ratio ~top ~save ~seed ~guard ~inject
    ~checkpoint ~checkpoint_every ~max_bytes ~max_flops ~validate ~static_gate ~corpus
    ~corpus_readonly ~root ~shards ~workers ~max_restarts ~heartbeat_timeout ~shard_deadline
    ~kill_after ~inline =
  match checkpoint with
  | None ->
      prerr_endline "search: --shards > 1 needs --checkpoint FILE as the merge base path";
      1
  | Some base -> (
      let t0 = Unix.gettimeofday () in
      match
        Api.search_conv_operators_sharded_run ~iterations ~max_prims
          ~flops_budget_ratio:budget_ratio ~shards ?workers ?max_restarts ?heartbeat_timeout
          ?shard_deadline ~guard ~inject ~checkpoint_every ?max_bytes ?max_flops ~validate
          ~static_gate ?corpus ~corpus_readonly ?kill_after ~inline ~cancel:root
          ~checkpoint_base:base ~seed ~valuations:Api.default_search_valuations ()
      with
      | exception Failure msg ->
          prerr_endline msg;
          2
      | { Api.sh_candidates; sh_report = r; sh_merge = m; sh_corpus } ->
          let open Search.Coordinator in
          (match Robust.Cancel.status root with
          | Some reason ->
              Format.printf "interrupted (%s): workers cascaded, checkpoints flushed@."
                (Robust.Cancel.reason_to_string reason)
          | None -> ());
          Format.printf
            "merged %d distinct canonical operators from %d shards in %.1fs (%s, %d \
             restarts)@."
            (List.length sh_candidates) shards
            (Unix.gettimeofday () -. t0)
            (if inline then "inline" else "forked workers")
            r.rp_restarts;
          List.iter
            (fun s ->
              Format.printf "shard %d: %s (%d attempt%s%s)@." s.sh_id
                (match s.sh_status with
                | Done -> "done"
                | Interrupted -> "interrupted"
                | Failed reason -> "FAILED: " ^ reason)
                s.sh_attempts
                (if s.sh_attempts = 1 then "" else "s")
                (if s.sh_kills > 0 then Printf.sprintf ", %d supervisor kill(s)" s.sh_kills
                 else ""))
            r.rp_shards;
          List.iter
            (fun (id, err) ->
              Format.printf "shard %d checkpoint quarantined: %s@." id
                (Search.Checkpoint.string_of_error err))
            m.Robust.Durable.mg_quarantined;
          if m.Robust.Durable.mg_duplicates > 0 then
            Format.printf "merge: %d signature conflict(s) resolved@."
              m.Robust.Durable.mg_duplicates;
          (match sh_corpus with
          | Some cm ->
              Format.printf "corpus: %d counterexamples merged from %d shard corpora@."
                (List.length cm.Robust.Durable.mg_entries)
                (List.length cm.Robust.Durable.mg_loaded);
              List.iter
                (fun (id, err) ->
                  Format.printf "shard %d corpus quarantined: %s@." id
                    (Validate.Corpus.string_of_error err))
                cm.Robust.Durable.mg_quarantined
          | None -> ());
          Format.printf "@.";
          print_candidates ~top ~save sh_candidates;
          let failed =
            List.exists
              (fun s -> match s.sh_status with Failed _ -> true | _ -> false)
              r.rp_shards
          in
          if r.rp_interrupted then exit_interrupted
          else if failed then exit_failed_shard
          else 0)

let search_cmd =
  let run iterations max_prims budget_ratio top save seed domains retries timeout
      fault_rate fault_seed checkpoint checkpoint_every resume resume_ignore_corrupt max_bytes
      max_flops validate no_static_gate no_graceful (corpus, corpus_readonly, no_corpus)
      (shards, workers, max_restarts, heartbeat_timeout, shard_deadline, kill_after, inline) =
    let domains = resolve_domains domains in
    (* The sharded path resumes and searches each shard on its own
       terms; refuse the flags it would otherwise drop without a word. *)
    let sharded_conflict =
      if shards <= 1 then None
      else if resume <> None then Some "--resume (each shard resumes from its own checkpoint)"
      else if resume_ignore_corrupt then
        Some "--resume-ignore-corrupt (a damaged shard checkpoint always restarts that shard)"
      else if domains > 1 then Some "--domains > 1 (each shard searches on one domain)"
      else None
    in
    match sharded_conflict with
    | Some what ->
        prerr_endline ("search: --shards > 1 cannot be combined with " ^ what);
        1
    | None ->
    (* The corpus defaults on next to the checkpoint whenever an
       admission gate is configured: the flags exist to move it
       (--corpus), freeze it (--corpus-readonly), or kill it
       (--no-corpus). *)
    let corpus =
      if no_corpus then None
      else
        match corpus with
        | Some _ as c -> c
        | None -> (
            match checkpoint with
            | Some base when validate || max_bytes <> None || max_flops <> None ->
                Some (base ^ ".corpus")
            | _ -> None)
    in
    let rng = Nd.Rng.create ~seed in
    let guard = Robust.Guard.policy ~retries ?timeout () in
    let inject =
      if fault_rate > 0.0 then
        Robust.Inject.create ~seed:fault_seed ~rate:fault_rate ()
      else Robust.Inject.none
    in
    let on_corrupt = if resume_ignore_corrupt then `Restart else `Fail in
    let root = Robust.Cancel.create () in
    if not no_graceful then install_shutdown_handlers root;
    if shards > 1 then
      run_sharded ~iterations ~max_prims ~budget_ratio ~top ~save ~seed ~guard ~inject
        ~checkpoint ~checkpoint_every ~max_bytes ~max_flops ~validate
        ~static_gate:(not no_static_gate) ~corpus ~corpus_readonly ~root ~shards ~workers
        ~max_restarts ~heartbeat_timeout ~shard_deadline ~kill_after ~inline
    else begin
    let t0 = Unix.gettimeofday () in
    match
      Api.search_conv_operators_run ~iterations ~max_prims ~flops_budget_ratio:budget_ratio
        ~domains ~guard ~inject ?checkpoint ~checkpoint_every ?resume ~on_corrupt
        ?max_bytes
        ?max_flops ~validate ~static_gate:(not no_static_gate) ?corpus ~corpus_readonly
        ~cancel:root ~rng ~valuations:Api.default_search_valuations ()
    with
    | exception Failure msg ->
        prerr_endline msg;
        2
    | { Api.candidates; failures; admission; corpus_stats } ->
    let interrupted = Robust.Cancel.status root in
    (match interrupted with
    | Some reason ->
        Format.printf "interrupted (%s): stopping at the iteration boundary%s@."
          (Robust.Cancel.reason_to_string reason)
          (match checkpoint with
          | Some path -> Printf.sprintf ", checkpoint flushed to %s" path
          | None -> "")
    | None -> ());
    Format.printf "found %d distinct canonical operators in %.1fs (%d domains)@."
      (List.length candidates)
      (Unix.gettimeofday () -. t0)
      domains;
    let open Search.Mcts in
    Format.printf
      "evaluations %d (quarantined %d), attempts %d (retries %d)%s, checkpoint writes %d@."
      failures.evaluations failures.quarantined failures.attempts failures.retries
      (match failures.failed_attempts with
      | [] -> ""
      | kinds ->
          Printf.sprintf ", failed: %s"
            (String.concat ", "
               (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) kinds)))
      failures.checkpoint_writes;
    (match admission with
    | Some s ->
        Format.printf
          "admission: %d gated, %d rejected (replay %d, static %d, budget %d, differential \
           %d), %.2fs in gate@."
          s.Validate.Admit.calls s.Validate.Admit.rejected s.Validate.Admit.rejected_replay
          s.Validate.Admit.rejected_static s.Validate.Admit.rejected_budget
          s.Validate.Admit.rejected_differential s.Validate.Admit.seconds;
        if s.Validate.Admit.distilled > 0 then
          Format.printf "admission: %d counterexample(s) distilled into the corpus@."
            s.Validate.Admit.distilled
    | None -> ());
    (match corpus_stats with
    | Some cs ->
        Format.printf
          "corpus: %d entries (%d added this run), replay checked %d, matched %d, executed \
           %d, rejected %d@."
          cs.Validate.Corpus.st_entries cs.Validate.Corpus.st_added
          cs.Validate.Corpus.st_checked cs.Validate.Corpus.st_matched
          cs.Validate.Corpus.st_executed cs.Validate.Corpus.st_rejected
    | None -> ());
    Format.printf "@.";
    print_candidates ~top ~save candidates;
    if interrupted <> None then exit_interrupted else 0
    end
  in
  let iterations =
    Arg.(value & opt (bounded_int ~what:"--iterations" ~min:1) 2000
         & info [ "iterations" ] ~doc:"MCTS iterations, split across the --domains trees.")
  in
  let max_prims =
    Arg.(value & opt (bounded_int ~what:"--max-prims" ~min:1) 8
         & info [ "max-prims" ] ~doc:"Maximum pGraph size.")
  in
  let budget =
    Arg.(value & opt (positive_float ~what:"--budget-ratio") 1.0
         & info [ "budget-ratio" ] ~doc:"FLOPs budget vs conv2d (finite, > 0).")
  in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Candidates to print.") in
  let save =
    Arg.(value & opt (some dir) None & info [ "save" ] ~doc:"Directory for .syno files.")
  in
  let seed = Arg.(value & opt int 2024 & info [ "seed" ] ~doc:"Search RNG seed.") in
  let retries =
    Arg.(value & opt (bounded_int ~what:"--retries" ~min:0) 2
         & info [ "retries" ] ~doc:"Retries per failed candidate evaluation (>= 0).")
  in
  let timeout =
    Arg.(value & opt (some (positive_float ~what:"--eval-timeout")) None
         & info [ "eval-timeout" ] ~doc:"Per-candidate wall-clock budget in seconds (> 0).")
  in
  let fault_rate =
    Arg.(value & opt (unit_float ~what:"--fault-rate") 0.0
         & info [ "fault-rate" ]
             ~doc:"Inject deterministic transient faults into this fraction of candidates \
                   (0 to 1).")
  in
  let fault_seed =
    Arg.(value & opt (any_int ~what:"--fault-seed") 0
         & info [ "fault-seed" ] ~doc:"Fault injection seed.")
  in
  let checkpoint =
    Arg.(value & opt (some (file_path ~what:"--checkpoint")) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Serialize the reward memo to $(docv) during the search.")
  in
  let checkpoint_every =
    Arg.(value & opt (bounded_int ~what:"--checkpoint-every" ~min:1) 50
         & info [ "checkpoint-every" ] ~doc:"New evaluations between checkpoint writes (>= 1).")
  in
  let resume =
    Arg.(value & opt (some (file_path ~what:"--resume")) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Preload a checkpoint written by --checkpoint; a missing file starts fresh.")
  in
  let resume_ignore_corrupt =
    Arg.(value & flag
         & info [ "resume-ignore-corrupt" ]
             ~doc:"Start fresh when the --resume file is truncated or corrupt, instead of \
                   failing.")
  in
  let max_bytes =
    Arg.(value & opt (some (bounded_int ~what:"--max-bytes" ~min:1)) None
         & info [ "max-bytes" ]
             ~doc:"Reject candidates whose estimated peak intermediate size exceeds this many \
                   bytes, before any allocation.")
  in
  let max_flops =
    Arg.(value & opt (some (bounded_int ~what:"--max-flops" ~min:1)) None
         & info [ "max-flops" ]
             ~doc:"Reject candidates whose estimated FLOPs exceed this budget, before any \
                   allocation.")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Differentially validate every candidate across the four lowering backends \
                   (reference, einsum, staged, certified specialized kernel) on small seeded \
                   inputs; disagreeing candidates are quarantined.")
  in
  let no_static_gate =
    Arg.(value & flag
         & info [ "no-static-gate" ]
             ~doc:"Skip the static bounds verifier that otherwise runs ahead of budget and \
                   differential admission whenever any gate is configured.")
  in
  let no_graceful =
    Arg.(value & flag
         & info [ "no-graceful-shutdown" ]
             ~doc:"Keep the default signal behaviour: SIGINT/SIGTERM kill the process \
                   immediately instead of stopping at the next iteration boundary and \
                   flushing a final checkpoint.")
  in
  let corpus_args =
    let corpus =
      Arg.(value & opt (some (file_path ~what:"--corpus")) None
           & info [ "corpus" ] ~docv:"FILE"
               ~doc:"Persist distilled counterexamples to $(docv) and replay them against \
                     every candidate ahead of the other admission stages (default: \
                     <checkpoint>.corpus when --checkpoint is set and any admission gate is \
                     configured).")
    in
    let corpus_readonly =
      Arg.(value & flag
           & info [ "corpus-readonly" ]
               ~doc:"Replay the corpus but never add to it (shared or frozen corpora).")
    in
    let no_corpus =
      Arg.(value & flag
           & info [ "no-corpus" ]
               ~doc:"Disable the counterexample corpus entirely, including the default \
                     derived from --checkpoint.")
    in
    Term.(const (fun a b c -> (a, b, c)) $ corpus $ corpus_readonly $ no_corpus)
  in
  let shard_args =
    let shards =
      Arg.(value & opt (bounded_int ~what:"--shards" ~min:1) 1
           & info [ "shards" ]
               ~doc:"Partition the search space by seeded root action into this many shards \
                     and run each in a supervised worker process (requires --checkpoint; \
                     iterations are split across shards).")
    in
    let workers =
      Arg.(value & opt (some (bounded_int ~what:"--shard-workers" ~min:1)) None
           & info [ "shard-workers" ]
               ~doc:"Maximum concurrent worker processes (default: one per shard).")
    in
    let max_restarts =
      Arg.(value & opt (some (bounded_int ~what:"--max-restarts" ~min:0)) None
           & info [ "max-restarts" ]
               ~doc:"Restarts per crashed shard before it is reported failed (default 2).")
    in
    let heartbeat_timeout =
      Arg.(value & opt (some (positive_float ~what:"--heartbeat-timeout")) None
           & info [ "heartbeat-timeout" ]
               ~doc:"Seconds of worker heartbeat silence before the coordinator kills and \
                     restarts it (default 10).")
    in
    let shard_deadline =
      Arg.(value & opt (some (positive_float ~what:"--shard-deadline")) None
           & info [ "shard-deadline" ]
               ~doc:"Per-shard-attempt wall-clock budget in seconds (default: none).")
    in
    let kill_after =
      Arg.(value & opt (some (bounded_int ~what:"--shard-kill-after" ~min:1)) None
           & info [ "shard-kill-after" ]
               ~doc:"Fault-injection: each shard's first worker attempt kills itself after \
                     this many reward evaluations, exercising restart recovery.")
    in
    let inline =
      Arg.(value & flag
           & info [ "shard-inline" ]
               ~doc:"Run the shards sequentially in-process (no forks) — the deterministic \
                     reference a forked run is asserted against.")
    in
    Term.(const (fun a b c d e f g -> (a, b, c, d, e, f, g))
          $ shards $ workers $ max_restarts $ heartbeat_timeout $ shard_deadline
          $ kill_after $ inline)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Synthesize convolution replacements with MCTS."
       ~exits:
         (Cmd.Exit.info ~doc:"on success." 0
         :: Cmd.Exit.info ~doc:"on a usage or validation error." 1
         :: Cmd.Exit.info ~doc:"on a search failure (e.g. an unreadable --resume file)." 2
         :: Cmd.Exit.info
              ~doc:"when a shard exhausted its restart budget (its partial checkpoint still \
                    merges)."
              exit_failed_shard
         :: Cmd.Exit.info ~doc:"when interrupted by SIGINT/SIGTERM (after flushing the \
                                checkpoint and reporting partial results)." exit_interrupted
         :: Cmd.Exit.defaults))
    Term.(const run $ iterations $ max_prims $ budget $ top $ save $ seed $ domains_arg
          $ retries $ timeout $ fault_rate $ fault_seed $ checkpoint $ checkpoint_every
          $ resume $ resume_ignore_corrupt $ max_bytes $ max_flops $ validate $ no_static_gate
          $ no_graceful $ corpus_args $ shard_args)

(* --- lint ------------------------------------------------------------------ *)

(* One diagnostic per line, machine-readable:
     <operator> bounds proved | padded regions=N | violation: <detail>
     <operator> regions verdict=... interior=... clips=N nests=N   (--regions)
     <operator> lint <rule> <severity>: <detail>
     <operator> rewrites checked=N approx=N unsound=N
     <operator> rewrite unsound: <detail>
     <operator> skip: not instantiable at the given shape
   Exit 1 when any operator has a bounds violation, an error-severity
   lint finding, or an unsound rewrite. *)
let lint_cmd =
  let module Verify = Analysis.Verify in
  let module Lint = Analysis.Lint in
  let module Rewrite = Analysis.Rewrite in
  let module Regions = Analysis.Regions in
  let run name all regions valuation =
    let targets =
      if all then Ok (List.map (fun e -> (e.Zoo.name, e.Zoo.operator)) Zoo.all)
      else
        match name with
        | None -> Error "lint: name an operator or .syno file, or pass --all"
        | Some n -> Result.map (fun t -> [ t ]) (resolve n)
    in
    match targets with
    | Error e ->
        prerr_endline e;
        1
    | Ok targets ->
        let failed = ref false in
        List.iter
          (fun (name, op) ->
            (* Operators off the conv signature (e.g. matmul) get a
               small fallback shape; neither fitting is a skip, not an
               error — lint must not reject what the search would run. *)
            let fallback = Zoo.Vars.matmul_valuation ~m:4 ~n:4 ~k:4 in
            let v =
              List.find_opt
                (fun v -> Option.is_some (Verify.program_opt op v))
                [ valuation; fallback ]
            in
            match v with
            | None ->
                Format.printf "%s skip: not instantiable at the given shape@." name;
                List.iter
                  (fun f ->
                    if f.Lint.lint_severity = Lint.Error then failed := true;
                    Format.printf "%s lint %s@." name (Lint.finding_to_string f))
                  (Lint.check op)
            | Some v -> (
                (match Verify.program op v with
                | Verify.Proved -> Format.printf "%s bounds proved@." name
                | Verify.Padded regions ->
                    Format.printf "%s bounds padded regions=%d@." name (List.length regions)
                | Verify.Violation d ->
                    failed := true;
                    Format.printf "%s bounds violation: %s@." name
                      (Verify.diagnostic_to_string d));
                if regions then
                  (match Regions.of_staged (Lower.Staged_exec.compile op v) with
                  | exception _ -> Format.printf "%s regions skip@." name
                  | cert ->
                      Format.printf "%s regions %s@." name
                        (Regions.summary_to_string cert));
                List.iter
                  (fun f ->
                    if f.Lint.lint_severity = Lint.Error then failed := true;
                    Format.printf "%s lint %s@." name (Lint.finding_to_string f))
                  (Lint.check ~valuations:[ v ] op);
                let report = Rewrite.check_operator (Coord.Simplify.ctx [ v ]) op in
                Format.printf "%s rewrites checked=%d approx=%d unsound=%d@." name
                  report.Rewrite.rp_checked report.Rewrite.rp_approx
                  (List.length report.Rewrite.rp_failures);
                List.iter
                  (fun f ->
                    failed := true;
                    Format.printf "%s rewrite unsound: %s@." name (Rewrite.failure_to_string f))
                  report.Rewrite.rp_failures))
          targets;
        if !failed then 1 else 0
  in
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"OPERATOR") in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every operator in the built-in catalog.")
  in
  let regions_arg =
    Arg.(value & flag
         & info [ "regions" ]
             ~doc:"Also print each operator's iteration-space partition certificate — \
                   verdict, interior fraction, border-strip count — one machine-readable \
                   line per operator.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify an operator: interval bounds proofs for every tensor access, \
          graph lint rules, and rewrite-soundness checks. No tensor is ever allocated."
       ~exits:
         (Cmd.Exit.info ~doc:"when every check passes." 0
         :: Cmd.Exit.info
              ~doc:"when any bounds violation, error-severity lint finding, or unsound \
                    rewrite is reported."
              1
         :: Cmd.Exit.defaults))
    Term.(const run $ name_arg $ all_arg $ regions_arg $ shape_args)

(* --- latency ------------------------------------------------------------------ *)

let model_conv =
  Arg.conv
    ( (fun s ->
        match
          List.find_opt (fun m -> m.Backbones.Models.name = s) Backbones.Models.vision_models
        with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown model " ^ s))),
      fun ppf m -> Format.pp_print_string ppf m.Backbones.Models.name )

let latency_cmd =
  let run name model =
    match resolve name with
    | Error e ->
        prerr_endline e;
        1
    | Ok (name, op) ->
        let entry = { Zoo.name; description = ""; operator = op } in
        Format.printf "%s substituted into %s:@.@." name model.Backbones.Models.name;
        Format.printf "%-14s %-14s %10s %10s %8s@." "platform" "compiler" "baseline" "syno"
          "speedup";
        List.iter
          (fun platform ->
            List.iter
              (fun compiler ->
                let base = Api.model_latency_ms model compiler platform in
                let sub = Api.model_latency_ms ~substitute:entry model compiler platform in
                Format.printf "%-14s %-14s %8.2fms %8.2fms %7.2fx@."
                  platform.Perf.Platform.name
                  (Perf.Compiler_model.name compiler)
                  base sub (base /. sub))
              Perf.Compiler_model.all)
          Perf.Platform.all;
        0
  in
  let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OPERATOR") in
  let model_arg =
    Arg.(value & opt model_conv Backbones.Models.resnet18 & info [ "model" ] ~doc:"Backbone.")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"End-to-end latency of a backbone with the operator substituted.")
    Term.(const run $ name_arg $ model_arg)

(* --- train ---------------------------------------------------------------------- *)

let train_cmd =
  let run name epochs lr seed domains clip_norm specialize =
    match resolve name with
    | Error e ->
        prerr_endline e;
        1
    | Ok (name, op) ->
        Par.Pool.set_default_domains (resolve_domains domains);
        let entry = { Zoo.name; description = ""; operator = op } in
        let rng = Nd.Rng.create ~seed in
        let data =
          Dataset.Synth_vision.generate rng ~classes:4 ~channels:4 ~size:10
            ~train_batches:10 ~eval_batches:8 ~batch_size:16 ()
        in
        Format.printf "training %s on the synthetic vision task...@." name;
        let h =
          Api.train_entry ~epochs ~lr ?clip_norm ~specialize
            ~rng:(Nd.Rng.create ~seed:(seed + 1)) entry data
        in
        List.iteri
          (fun i (loss, acc) ->
            Format.printf "  epoch %2d  loss %.3f  accuracy %.3f@." (i + 1) loss acc)
          (List.combine h.Nn.Train.epoch_losses h.Nn.Train.epoch_accuracies);
        (match h.Nn.Train.outcome with
        | Nn.Train.Completed -> ()
        | Nn.Train.Aborted_non_finite { epoch; step } ->
            Format.printf "aborted: non-finite loss at epoch %d, step %d@." epoch step
        | Nn.Train.Aborted_diverged { epoch; loss; initial } ->
            Format.printf "aborted: diverged at epoch %d (loss %.3f vs initial %.3f)@." epoch
              loss initial
        | Nn.Train.Aborted_cancelled { epoch; step } ->
            Format.printf "aborted: cancelled at epoch %d, step %d@." epoch step);
        Format.printf "final eval accuracy: %.3f@." h.Nn.Train.final_eval_accuracy;
        if h.Nn.Train.aborted then 1 else 0
  in
  let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OPERATOR") in
  let epochs_arg =
    Arg.(value & opt (bounded_int ~what:"--epochs" ~min:1) 8
         & info [ "epochs" ] ~doc:"Training epochs (>= 1).")
  in
  let lr_arg =
    Arg.(value & opt (positive_float ~what:"--lr") 0.1
         & info [ "lr" ] ~doc:"Learning rate (> 0).")
  in
  let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Data/init seed.") in
  let clip_arg =
    Arg.(value & opt (some (positive_float ~what:"--clip-norm")) None
         & info [ "clip-norm" ]
             ~doc:"Clip the global gradient norm to this value each step (> 0).")
  in
  let specialize_arg =
    Arg.(value & opt (specialize_conv ~what:"--specialize") `Off
         & info [ "specialize" ] ~docv:"MODE"
             ~doc:"Run the proxy forward pass through the certified specialized kernel: \
                   $(b,on), $(b,off), or $(b,auto).  The interpreter is the fallback \
                   whenever certification declines the operator.")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a proxy model with the operator substituted.")
    Term.(const run $ name_arg $ epochs_arg $ lr_arg $ seed_arg $ domains_arg $ clip_arg
          $ specialize_arg)

(* --- serve --------------------------------------------------------------------- *)

let serve_cmd =
  let run socket cache cache_capacity cache_every corpus max_queue max_inflight_bytes
      deadline max_deadline retry_after workers max_connections drain_grace retries =
    let cfg =
      {
        (Serve.Server.default_config ~socket) with
        Serve.Server.cache_path = cache;
        cache_capacity;
        cache_every;
        corpus_path = corpus;
        max_depth = max_queue;
        max_inflight_bytes;
        default_deadline = deadline;
        max_deadline = Float.max deadline max_deadline;
        retry_after;
        workers;
        max_connections;
        drain_grace;
        guard = Robust.Guard.policy ~retries ~backoff:0.005 ~jitter:0.5 ();
      }
    in
    Serve.Server.run
      ~on_ready:(fun () -> Format.printf "serving on %s@." socket)
      cfg
  in
  let socket =
    Arg.(required & opt (some (file_path ~what:"--socket")) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to serve on.")
  in
  let cache =
    Arg.(value & opt (some (file_path ~what:"--cache")) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Persist the result cache to $(docv) (atomic, fsynced): a killed daemon \
                   restarts warm.")
  in
  let cache_capacity =
    Arg.(value & opt (bounded_int ~what:"--cache-capacity" ~min:1) 1024
         & info [ "cache-capacity" ] ~doc:"LRU cache entries (>= 1).")
  in
  let cache_every =
    Arg.(value & opt (bounded_int ~what:"--cache-every" ~min:1) 16
         & info [ "cache-every" ] ~doc:"Cache insertions between snapshot writes (>= 1).")
  in
  let corpus =
    Arg.(value & opt (some (file_path ~what:"--corpus")) None
         & info [ "corpus" ] ~docv:"FILE"
             ~doc:"Counterexample corpus to replay against every eval and extend with newly \
                   poisoned operators.")
  in
  let max_queue =
    Arg.(value & opt (bounded_int ~what:"--max-queue" ~min:1) 64
         & info [ "max-queue" ]
             ~doc:"Admission bound on queued requests; beyond it the server sheds with an \
                   overloaded response (>= 1).")
  in
  let max_inflight_bytes =
    Arg.(value & opt (bounded_int ~what:"--max-inflight-bytes" ~min:1) (4 * 1024 * 1024)
         & info [ "max-inflight-bytes" ]
             ~doc:"Admission bound on in-flight request payload bytes (>= 1).")
  in
  let deadline =
    Arg.(value & opt (positive_float ~what:"--deadline") 10.0
         & info [ "deadline" ] ~doc:"Default per-request deadline in seconds (> 0).")
  in
  let max_deadline =
    Arg.(value & opt (positive_float ~what:"--max-deadline") 60.0
         & info [ "max-deadline" ] ~doc:"Clamp on client-requested deadlines (> 0).")
  in
  let retry_after =
    Arg.(value & opt (positive_float ~what:"--retry-after") 0.05
         & info [ "retry-after" ] ~doc:"Retry hint attached to shed responses, seconds (> 0).")
  in
  let workers =
    Arg.(value & opt (bounded_int ~what:"--workers" ~min:1) 2
         & info [ "workers" ] ~doc:"Evaluation worker domains (>= 1).")
  in
  let max_connections =
    Arg.(value & opt (bounded_int ~what:"--max-connections" ~min:1) 64
         & info [ "max-connections" ] ~doc:"Concurrent client connections (>= 1).")
  in
  let drain_grace =
    Arg.(value & opt (positive_float ~what:"--drain-grace") 5.0
         & info [ "drain-grace" ]
             ~doc:"Seconds a drain waits for in-flight work before force-cancelling it (> 0).")
  in
  let retries =
    Arg.(value & opt (bounded_int ~what:"--retries" ~min:0) 1
         & info [ "retries" ] ~doc:"Retries per failed request evaluation (>= 0).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent operator daemon on a Unix-domain socket: cached \
          lower+verify+validate evals with per-request deadlines, overload shedding, and \
          graceful drain."
       ~exits:
         (Cmd.Exit.info ~doc:"after a graceful drain (SIGTERM or the drain verb)." 0
         :: Cmd.Exit.info ~doc:"on a startup failure (socket already served, bind error)." 2
         :: Cmd.Exit.info ~doc:"when interrupted by SIGINT (cache flushed first)."
              exit_interrupted
         :: Cmd.Exit.defaults))
    Term.(const run $ socket $ cache $ cache_capacity $ cache_every $ corpus $ max_queue
          $ max_inflight_bytes $ deadline $ max_deadline $ retry_after $ workers
          $ max_connections $ drain_grace $ retries)

(* --- client -------------------------------------------------------------------- *)

let client_cmd =
  let run socket timeout verb params =
    match Serve.Protocol.verb_of_label verb with
    | None ->
        prerr_endline ("client: unknown verb " ^ verb);
        1
    | Some v -> (
        let parse_param s =
          match String.index_opt s '=' with
          | Some i ->
              Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
          | None -> Error (Printf.sprintf "client: bad parameter %S (expected key=value)" s)
        in
        let rec parse_all acc = function
          | [] -> Ok (List.rev acc)
          | p :: rest -> (
              match parse_param p with
              | Ok kv -> parse_all (kv :: acc) rest
              | Error e -> Error e)
        in
        match parse_all [] params with
        | Error e ->
            prerr_endline e;
            1
        | Ok params -> (
            let request =
              { Serve.Protocol.rq_id = "1"; rq_verb = v; rq_params = params }
            in
            match Serve.Client.connect ~timeout socket with
            | Error e ->
                prerr_endline ("client: " ^ e);
                2
            | Ok conn ->
                let result = Serve.Client.call ~timeout conn request in
                Serve.Client.close conn;
                (match result with
                | Error e ->
                    prerr_endline ("client: " ^ e);
                    2
                | Ok resp ->
                    print_endline (Serve.Protocol.render_response ~id:"1" resp);
                    (match resp with
                    | Serve.Protocol.Resp_ok _ -> 0
                    | Serve.Protocol.Resp_error _ -> 1))))
  in
  let socket =
    Arg.(required & opt (some (file_path ~what:"--socket")) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of a running daemon.")
  in
  let timeout =
    Arg.(value & opt (positive_float ~what:"--timeout") 10.0
         & info [ "timeout" ] ~doc:"Connect/response timeout in seconds (> 0).")
  in
  let verb =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"VERB" ~doc:"eval | lint | search | status | ping | drain")
  in
  let params =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"KEY=VALUE" ~doc:"Request parameters, e.g. op=conv2d deadline=2.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running syno serve daemon and print the response."
       ~exits:
         (Cmd.Exit.info ~doc:"on an ok response." 0
         :: Cmd.Exit.info ~doc:"on a typed error response (printed on stdout)." 1
         :: Cmd.Exit.info ~doc:"on a transport failure (connect/timeout)." 2
         :: Cmd.Exit.defaults))
    Term.(const run $ socket $ timeout $ verb $ params)

let () =
  let info =
    Cmd.info "syno" ~version:"1.0"
      ~doc:"Structured synthesis for neural operators (ASPLOS'25 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; describe_cmd; search_cmd; lint_cmd; latency_cmd; train_cmd; serve_cmd;
            client_cmd;
          ]))

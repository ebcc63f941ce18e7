(* End-to-end tests for the syno CLI's exit-code contract and graceful
   shutdown: 0 success, 1 usage/validation error, 2 search failure, 130
   interrupted.  The SIGINT test drives a real child process: spawn a
   long search with checkpointing, wait for the checkpoint file to
   prove the search is underway, send SIGINT, and assert the process
   flushed its checkpoint and exited 130 — then that resuming from that
   checkpoint replays to the same top-k as an uninterrupted run. *)

(* The CLI binary sits next to this test in the build tree
   (_build/default/{test,bin}/), so resolve it relative to the test
   executable rather than the cwd — dune runtest and dune exec run
   from different directories. *)
let cli =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "syno_cli.exe")

let with_temp_dir f =
  let dir = Filename.temp_file "syno_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Run the CLI to completion, capturing stdout; stderr goes to a file
   too so failures can report it. *)
let run_cli args =
  with_temp_dir (fun dir ->
      let out_path = Filename.concat dir "stdout" in
      let err_path = Filename.concat dir "stderr" in
      let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      let pid =
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out_fd err_fd
      in
      Unix.close out_fd;
      Unix.close err_fd;
      let _, status = Unix.waitpid [] pid in
      let slurp path =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let code =
        match status with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
        | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s
      in
      (code, slurp out_path, slurp err_path))

let test_exit_codes () =
  let code, out, _ = run_cli [ "list" ] in
  Alcotest.(check int) "list exits 0" 0 code;
  Alcotest.(check bool) "catalog printed" true
    (Astring.String.is_infix ~affix:"conv2d" out);
  let code, _, _ = run_cli [ "describe"; "no-such-operator" ] in
  Alcotest.(check int) "unknown operator exits 1" 1 code;
  with_temp_dir (fun dir ->
      let bad = Filename.concat dir "bad.ckpt" in
      let oc = open_out bad in
      output_string oc "this is not a checkpoint\n";
      close_out oc;
      let code, _, err =
        run_cli [ "search"; "--iterations"; "5"; "--max-prims"; "4"; "--resume"; bad ]
      in
      Alcotest.(check int) "corrupt resume exits 2" 2 code;
      Alcotest.(check bool) "error names the file" true
        (Astring.String.is_infix ~affix:"bad.ckpt" err))

(* Every sharding flag parses through a validated converter: a
   non-positive count, a negative restart budget, or a non-finite
   timeout must die at parse time with a one-line error naming the flag
   and the constraint — never reach the coordinator as nonsense. *)
let test_sharding_flag_validation () =
  let rejects flag value constraint_hint =
    let code, _, err = run_cli [ "search"; "--iterations"; "1"; flag ^ "=" ^ value ] in
    Alcotest.(check bool)
      (Printf.sprintf "%s=%s exits non-zero" flag value)
      true (code <> 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s=%s error names the flag" flag value)
      true
      (Astring.String.is_infix ~affix:flag err);
    Alcotest.(check bool)
      (Printf.sprintf "%s=%s error states the constraint" flag value)
      true
      (Astring.String.is_infix ~affix:constraint_hint err)
  in
  rejects "--shards" "0" "must be >= 1";
  rejects "--shards" "junk" "expected an integer";
  rejects "--shard-workers" "0" "must be >= 1";
  rejects "--max-restarts" "-1" "must be >= 0";
  rejects "--heartbeat-timeout" "0" "must be > 0";
  rejects "--heartbeat-timeout" "nan" "must be > 0";
  rejects "--heartbeat-timeout" "junk" "expected a number";
  rejects "--shard-deadline" "-2.5" "must be > 0";
  (* Flags the sharded path has no use for are refused, not dropped. *)
  let rejects_sharded args flag =
    let code, _, err = run_cli ([ "search"; "--iterations"; "1"; "--shards=2" ] @ args) in
    Alcotest.(check int) (Printf.sprintf "%s with --shards 2 exits 1" flag) 1 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s with --shards 2: one-line reason naming both flags" flag)
      true
      (Astring.String.is_infix ~affix:flag err
      && Astring.String.is_infix ~affix:"--shards > 1" err
      && List.length (String.split_on_char '\n' (String.trim err)) = 1)
  in
  rejects_sharded [ "--resume=r.ckpt" ] "--resume";
  rejects_sharded [ "--resume-ignore-corrupt" ] "--resume-ignore-corrupt";
  rejects_sharded [ "--domains=2" ] "--domains"

(* The remaining search flags are validated the same way: the fault
   rate is a probability, the fault seed an integer, and every path
   flag must name a writable file — not the empty string and not a
   directory.  cmdliner reports parse errors with exit 124. *)
let test_fault_and_path_flag_validation () =
  (* cmdliner wraps its error output, so a hint with spaces can be
     split across lines; compare against a whitespace-flattened view. *)
  let flatten s = String.concat " " (Astring.String.fields ~empty:false s) in
  let rejects flag value constraint_hint =
    let code, _, err = run_cli [ "search"; "--iterations"; "1"; flag ^ "=" ^ value ] in
    let err = flatten err in
    Alcotest.(check int) (Printf.sprintf "%s=%S exits 124" flag value) 124 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s=%S error names the flag" flag value)
      true
      (Astring.String.is_infix ~affix:flag err);
    Alcotest.(check bool)
      (Printf.sprintf "%s=%S error states the constraint" flag value)
      true
      (Astring.String.is_infix ~affix:constraint_hint err)
  in
  rejects "--fault-rate" "nan" "must be in [0, 1]";
  rejects "--fault-rate" "1.5" "must be in [0, 1]";
  rejects "--fault-rate" "junk" "expected a number";
  rejects "--fault-seed" "junk" "expected an integer";
  rejects "--checkpoint" "" "must not be empty";
  rejects "--checkpoint" "   " "must not be empty";
  rejects "--resume" "" "must not be empty";
  rejects "--corpus" "" "must not be empty";
  with_temp_dir (fun dir ->
      List.iter
        (fun flag ->
          let code, _, err =
            run_cli [ "search"; "--iterations"; "1"; flag ^ "=" ^ dir ]
          in
          Alcotest.(check int) (Printf.sprintf "%s=<dir> exits 124" flag) 124 code;
          Alcotest.(check bool)
            (Printf.sprintf "%s=<dir> error says directory" flag)
            true
            (Astring.String.is_infix ~affix:"is a directory" (flatten err)))
        [ "--checkpoint"; "--resume"; "--corpus" ])

(* The search budgets are validated the same way: a non-positive
   iteration count or pGraph size, and a FLOPs budget ratio that is not
   a finite positive number, die at parse time (exit 124) instead of
   running a search that finds nothing and exits 0.  A huge but finite
   ratio saturates the FLOPs budget rather than overflowing it. *)
let test_search_budget_validation () =
  let flatten s = String.concat " " (Astring.String.fields ~empty:false s) in
  let rejects args flag constraint_hint =
    let code, _, err = run_cli ("search" :: args) in
    let err = flatten err in
    let what = String.concat " " args in
    Alcotest.(check int) (Printf.sprintf "%s exits 124" what) 124 code;
    Alcotest.(check bool) (Printf.sprintf "%s error names the flag" what) true
      (Astring.String.is_infix ~affix:flag err);
    Alcotest.(check bool) (Printf.sprintf "%s error states the constraint" what) true
      (Astring.String.is_infix ~affix:constraint_hint err)
  in
  rejects [ "--iterations=-3" ] "--iterations" "must be >= 1";
  rejects [ "--iterations=0" ] "--iterations" "must be >= 1";
  rejects [ "--iterations=1"; "--max-prims=0" ] "--max-prims" "must be >= 1";
  List.iter
    (fun ratio ->
      rejects [ "--iterations=1"; "--budget-ratio=" ^ ratio ] "--budget-ratio" "must be > 0")
    [ "nan"; "-1"; "0"; "inf" ];
  let code, out, _ =
    run_cli
      [ "search"; "--iterations=40"; "--max-prims=4"; "--seed=5"; "--budget-ratio=1e300" ]
  in
  Alcotest.(check int) "--budget-ratio=1e300 exits 0" 0 code;
  Alcotest.(check bool) "--budget-ratio=1e300 finds operators" false
    (Astring.String.is_infix ~affix:"found 0 distinct" out)

(* train's --specialize parses through the validated-converter
   discipline: junk dies at parse time with a one-line error naming the
   flag and the accepted values (exit 124).  serve has no such flag: its
   cold pipeline always cross-checks the certified kernel, so the
   option is unknown there (also exit 124). *)
let test_specialize_flag_validation () =
  let flatten s = String.concat " " (Astring.String.fields ~empty:false s) in
  let code, _, err = run_cli [ "train"; "conv2d"; "--epochs"; "1"; "--specialize"; "junk" ] in
  let err = flatten err in
  Alcotest.(check int) "--specialize=junk exits 124" 124 code;
  Alcotest.(check bool) "error names the flag" true
    (Astring.String.is_infix ~affix:"--specialize" err);
  Alcotest.(check bool) "error lists the accepted values" true
    (Astring.String.is_infix ~affix:"expected on, off or auto" err);
  let code, _, err =
    run_cli [ "serve"; "--socket"; "/nonexistent-dir/s.sock"; "--specialize"; "auto" ]
  in
  Alcotest.(check int) "serve --specialize auto exits 124" 124 code;
  Alcotest.(check bool) "error says unknown option" true
    (Astring.String.is_infix ~affix:"unknown option" (flatten err))

(* syno lint --regions: one machine-readable certificate line per
   operator, and the degenerate-free zoo keeps the all-border lint rule
   quiet. *)
let test_lint_regions () =
  let code, out, _ = run_cli [ "lint"; "conv2d"; "--regions"; "--hw"; "10" ] in
  Alcotest.(check int) "lint --regions exits 0" 0 code;
  Alcotest.(check bool) "certificate line printed" true
    (Astring.String.is_infix ~affix:"conv2d regions verdict=padded interior=" out);
  Alcotest.(check bool) "clip count printed" true
    (Astring.String.is_infix ~affix:"clips=" out);
  (* Without the flag the line is absent. *)
  let code, out, _ = run_cli [ "lint"; "conv2d"; "--hw"; "10" ] in
  Alcotest.(check int) "plain lint exits 0" 0 code;
  Alcotest.(check bool) "no certificate line without --regions" false
    (Astring.String.is_infix ~affix:" regions " out);
  (* --all prints a certificate per catalog operator, including the
     proved ones that list no clip. *)
  let code, out, _ = run_cli [ "lint"; "--all"; "--regions"; "--hw"; "10" ] in
  Alcotest.(check int) "lint --all --regions exits 0" 0 code;
  Alcotest.(check bool) "proved operators report interior fraction 1" true
    (Astring.String.is_infix ~affix:"conv1x1 regions verdict=proved interior=1.000 clips=0"
       out)

(* --corpus end to end.  Distillation needs a real differential
   failure, which the CLI cannot fabricate, so the corpus is seeded by
   an in-process faulted search configured exactly like the CLI run
   (same seed, domains, guard); the CLI then re-encounters the same
   family and must reject it by replay — the exact per-stage counts
   appear in the admission and corpus stats lines — without adding
   anything new to the file. *)
let test_corpus_flag_roundtrip () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "bugs.corpus" in
      let fault =
        Validate.Differential.fault ~seed:3 ~rate:0.5 Validate.Differential.Einsum
      in
      let seeded =
        Syno.Api.search_conv_operators_run ~iterations:150 ~max_prims:6 ~domains:1
          ~guard:(Robust.Guard.policy ~retries:2 ()) ~validate:true
          ~validate_config:(Validate.Differential.config ~fault ())
          ~corpus ~rng:(Nd.Rng.create ~seed:2024)
          ~valuations:Syno.Api.default_search_valuations ()
      in
      let d =
        match seeded.Syno.Api.admission with
        | Some s -> s.Validate.Admit.rejected_differential
        | None -> 0
      in
      Alcotest.(check bool) "seeding run distilled counterexamples" true (d > 0);
      let n =
        match Validate.Corpus.load_result ~path:corpus with
        | Ok entries -> List.length entries
        | Error e -> Alcotest.fail (Validate.Corpus.string_of_error e)
      in
      let code, out, err =
        run_cli
          [ "search"; "--iterations"; "150"; "--max-prims"; "6"; "--seed"; "2024";
            "--validate"; "--corpus"; corpus; "--top"; "5" ]
      in
      Alcotest.(check int) ("corpus CLI run exits 0: " ^ err) 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "admission line reports replay %d" d)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "replay %d," d) out);
      Alcotest.(check bool)
        (Printf.sprintf "corpus line reports %d replay rejections" d)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "rejected %d" d) out);
      match Validate.Corpus.load_result ~path:corpus with
      | Ok entries2 ->
          Alcotest.(check int) "re-encounter adds no new entries" n (List.length entries2)
      | Error e -> Alcotest.fail (Validate.Corpus.string_of_error e))

(* The sharded report: an inline 2-shard validated run exits 0 and
   prints the merge line, one status line per shard and the corpus
   merge line, with counts that match the files it left behind. *)
let test_sharded_report () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "run.ckpt" in
      let code, out, err =
        run_cli
          [ "search"; "--shards"; "2"; "--shard-inline"; "--checkpoint"; ckpt; "--validate";
            "--iterations"; "240"; "--max-prims"; "6"; "--seed"; "2024"; "--top"; "0" ]
      in
      Alcotest.(check int) ("sharded CLI run exits 0: " ^ err) 0 code;
      let signatures =
        List.concat_map
          (fun i ->
            match Search.Checkpoint.load_result ~path:(Printf.sprintf "%s.shard%d" ckpt i) with
            | Ok es -> List.map (fun (e : Search.Checkpoint.entry) -> e.Search.Checkpoint.signature) es
            | Error e -> Alcotest.fail (Search.Checkpoint.string_of_error e))
          [ 0; 1 ]
        |> List.sort_uniq compare
      in
      let corpus =
        match Validate.Corpus.load_result ~path:(ckpt ^ ".corpus") with
        | Ok es -> es
        | Error e -> Alcotest.fail (Validate.Corpus.string_of_error e)
      in
      List.iter
        (fun line ->
          Alcotest.(check bool) ("prints: " ^ line) true
            (Astring.String.is_infix ~affix:line out))
        [
          Printf.sprintf "merged %d distinct canonical operators from 2 shards"
            (List.length signatures);
          "shard 0: done";
          "shard 1: done";
          Printf.sprintf "corpus: %d counterexamples merged from 2 shard corpora"
            (List.length corpus);
        ])

(* The "#k reward ... <signature>" result lines, the part of the output
   that must replay identically. *)
let result_lines out =
  List.filter
    (fun line -> String.length line > 0 && line.[0] = '#')
    (String.split_on_char '\n' out)

let search_args = [ "--max-prims"; "6"; "--seed"; "3"; "--top"; "5" ]

let test_sigint_graceful_shutdown () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "search.ckpt" in
      let out_path = Filename.concat dir "stdout" in
      let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      (* An iteration budget far beyond what could finish before the
         signal: the run can only end via the shutdown path. *)
      let args =
        [ "search"; "--iterations"; "2000000000"; "--checkpoint"; ckpt;
          "--checkpoint-every"; "5" ]
        @ search_args
      in
      let pid =
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out_fd Unix.stderr
      in
      Unix.close out_fd;
      (* Wait for the first checkpoint write — proof the search is in
         its hot loop — before interrupting. *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      while not (Sys.file_exists ckpt) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.05
      done;
      Alcotest.(check bool) "search started (checkpoint appeared)" true
        (Sys.file_exists ckpt);
      Unix.kill pid Sys.sigint;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 130 -> ()
      | Unix.WEXITED c -> Alcotest.failf "expected exit 130, got %d" c
      | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d (handler not installed?)" s
      | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s);
      (* The final flush must leave a loadable checkpoint. *)
      (match Search.Checkpoint.load_result ~path:ckpt with
      | Ok entries ->
          Alcotest.(check bool) "flushed checkpoint has entries" true (entries <> [])
      | Error e -> Alcotest.fail (Search.Checkpoint.string_of_error e));
      (* And the interrupted run reported partial results. *)
      let ic = open_in_bin out_path in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "partial top-k reported" true (result_lines out <> []);
      Alcotest.(check bool) "interruption reported" true
        (Astring.String.is_infix ~affix:"interrupted" out);
      (* Killed-and-resumed replays to the uninterrupted results. *)
      let iters = [ "--iterations"; "300" ] in
      let code_f, fresh, _ = run_cli (("search" :: iters) @ search_args) in
      let code_r, resumed, _ =
        run_cli (("search" :: iters) @ search_args @ [ "--resume"; ckpt ])
      in
      Alcotest.(check int) "fresh run exits 0" 0 code_f;
      Alcotest.(check int) "resumed run exits 0" 0 code_r;
      Alcotest.(check bool) "fresh run found results" true (result_lines fresh <> []);
      Alcotest.(check (list string)) "resumed top-k identical to uninterrupted"
        (result_lines fresh) (result_lines resumed))

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0 / 1 / 2" `Quick test_exit_codes;
          Alcotest.test_case "SIGINT: flush, 130, resume replays" `Quick
            test_sigint_graceful_shutdown;
        ] );
      ( "flag-validation",
        [
          Alcotest.test_case "sharding flags reject nonsense at parse time" `Quick
            test_sharding_flag_validation;
          Alcotest.test_case "fault + path flags reject nonsense at parse time" `Quick
            test_fault_and_path_flag_validation;
          Alcotest.test_case "search budgets reject nonsense at parse time" `Quick
            test_search_budget_validation;
          Alcotest.test_case "--specialize rejects junk at parse time" `Quick
            test_specialize_flag_validation;
        ] );
      ( "regions",
        [ Alcotest.test_case "lint --regions certificate lines" `Quick test_lint_regions ]
      );
      ( "corpus",
        [
          Alcotest.test_case "--corpus: replay on re-encounter, no re-adds" `Quick
            test_corpus_flag_roundtrip;
        ] );
      ( "shards",
        [ Alcotest.test_case "sharded run reports merge and shards" `Quick test_sharded_report ]
      );
    ]

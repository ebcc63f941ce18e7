(* The counterexample corpus: exact serialization round trips, crash
   tolerance (corrupt/truncated files quarantined — never fatal; a
   SIGKILL mid-append never tears the file), shard merge dedup, replay
   semantics (exact-signature hits reject with zero tensor work, family
   siblings re-execute and pass when healthy), and the Admit gate's
   replay-first stage order with distillation. *)

module Corpus = Validate.Corpus
module Differential = Validate.Differential
module Guard = Robust.Guard

let vs = Syno.Api.default_validation_valuations
let conv = Syno.Zoo.conv2d.Syno.Zoo.operator

(* A real differential counterexample: a rate-1.0 output corruption of
   the einsum backend makes conv2d disagree with the reference. *)
let differential_entry () =
  let fault = Differential.fault ~rate:1.0 Differential.Einsum in
  let config = Differential.config ~fault () in
  match Differential.check_full ~config conv vs with
  | Error f -> Corpus.of_differential ~tolerance:1e-6 conv f
  | Ok _ -> Alcotest.fail "expected a differential failure under a rate-1.0 fault"

(* A real static counterexample: the seeded out-of-bounds gather. *)
let static_entry () =
  let corrupt = Differential.corrupt_operator conv in
  match Analysis.Verify.program_opt corrupt (List.hd vs) with
  | Some (Analysis.Verify.Violation d) -> (corrupt, Corpus.of_static corrupt (List.hd vs) d)
  | _ -> Alcotest.fail "expected a static bounds violation on the corrupted operator"

let with_temp_path f =
  let path = Filename.temp_file "syno_corpus" ".corpus" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".corrupt"; path ^ ".tmp" ])
    (fun () ->
      Sys.remove path;
      f path)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let idents es = List.map Corpus.ident es

(* Entries as they come back from disk.  For trace-built operators
   (everything the search produces) this is the identity; the
   artificially corrupted operator in [static_entry] mutates its
   expression outside the trace language, so its rebuilt signature
   legitimately differs — replay still rejects it via the
   family-sibling re-execution path. *)
let roundtripped es =
  match Corpus.of_string_result (Corpus.to_string es) with
  | Ok l -> l
  | Error err -> Alcotest.fail (Corpus.string_of_error err)

let test_roundtrip_exact () =
  let e = differential_entry () in
  let _, s = static_entry () in
  let text = Corpus.to_string [ e; s ] in
  match Corpus.of_string_result text with
  | Error err -> Alcotest.fail (Corpus.string_of_error err)
  | Ok loaded ->
      Alcotest.(check int) "both entries survive" 2 (List.length loaded);
      let e' =
        List.find (fun x -> x.Corpus.ce_origin = Corpus.Differential) loaded
      in
      let s' = List.find (fun x -> x.Corpus.ce_origin = Corpus.Static) loaded in
      Alcotest.(check string) "static detail preserved" s.Corpus.ce_detail
        s'.Corpus.ce_detail;
      Alcotest.(check bool) "static valuation preserved" true
        (Shape.Valuation.bindings s.Corpus.ce_valuation
        = Shape.Valuation.bindings s'.Corpus.ce_valuation);
      Alcotest.(check (list string)) "trace-built entry ident is stable"
        (idents [ e ])
        (idents (roundtripped [ e ]));
      Alcotest.(check int) "seed exact" e.Corpus.ce_seed e'.Corpus.ce_seed;
      Alcotest.(check (float 0.0)) "tolerance bit-exact (hex floats)"
        e.Corpus.ce_tolerance e'.Corpus.ce_tolerance;
      Alcotest.(check (float 0.0)) "abs error bit-exact" e.Corpus.ce_abs_err
        e'.Corpus.ce_abs_err;
      (match (e.Corpus.ce_fail, e'.Corpus.ce_fail) with
      | Some (i, exp, got), Some (i', exp', got') ->
          Alcotest.(check int) "failing index" i i';
          Alcotest.(check (float 0.0)) "expected bit-exact" exp exp';
          Alcotest.(check (float 0.0)) "got bit-exact" got got'
      | None, None -> ()
      | _ -> Alcotest.fail "fail record lost in the round trip");
      Alcotest.(check string) "operator signature preserved" e.Corpus.ce_signature
        e'.Corpus.ce_signature

let test_corrupt_file_quarantined () =
  with_temp_path (fun path ->
      write_file path "this is not a corpus\n";
      let t, report = Corpus.open_file path in
      (match report.Corpus.or_quarantined with
      | Some (qpath, Corpus.Bad_header _) ->
          Alcotest.(check bool) "damaged file moved aside" true (Sys.file_exists qpath);
          Alcotest.(check bool) "original path freed" false (Sys.file_exists path)
      | Some (_, err) -> Alcotest.failf "expected Bad_header, got %s" (Corpus.string_of_error err)
      | None -> Alcotest.fail "damaged corpus was not quarantined");
      Alcotest.(check int) "corpus starts empty" 0 (Corpus.size t);
      (* The quarantined corpus keeps working: adds persist cleanly. *)
      Alcotest.(check bool) "add after quarantine" true (Corpus.add t (differential_entry ()));
      match Corpus.load_result ~path with
      | Ok es -> Alcotest.(check int) "regrown corpus loads" 1 (List.length es)
      | Error err -> Alcotest.fail (Corpus.string_of_error err))

let test_truncated_file_detected () =
  with_temp_path (fun path ->
      let e = differential_entry () in
      let _, s = static_entry () in
      Corpus.save ~path [ e; s ];
      (* Drop the last entry's block but keep the declared count: the
         typed loader must report Truncated, and open_file must
         quarantine instead of dying. *)
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines = String.split_on_char '\n' text in
      let is_entry l =
        String.length l >= 6 && String.sub l 0 6 = "entry:"
      in
      let last_entry_at =
        List.fold_left
          (fun (i, best) l -> (i + 1, if is_entry l then i else best))
          (0, -1) lines
        |> snd
      in
      let kept = List.filteri (fun i _ -> i < last_entry_at) lines in
      write_file path (String.concat "\n" kept);
      (match Corpus.load_result ~path with
      | Error (Corpus.Truncated { expected = 2; found = 1 }) -> ()
      | Error err -> Alcotest.failf "expected Truncated 2/1, got %s" (Corpus.string_of_error err)
      | Ok _ -> Alcotest.fail "truncated corpus loaded");
      let t, report = Corpus.open_file path in
      Alcotest.(check bool) "truncated file quarantined, not fatal" true
        (report.Corpus.or_quarantined <> None);
      Alcotest.(check int) "corpus starts empty after quarantine" 0 (Corpus.size t))

let test_readonly_never_writes () =
  with_temp_path (fun path ->
      let e = differential_entry () in
      Corpus.save ~path [ e ];
      let t, report = Corpus.open_file ~readonly:true path in
      Alcotest.(check int) "readonly load" 1 report.Corpus.or_loaded;
      Alcotest.(check bool) "readonly add is a no-op" false
        (Corpus.add t { e with Corpus.ce_seed = e.Corpus.ce_seed + 1 });
      Corpus.flush t;
      Alcotest.(check int) "no writes in readonly mode" 0 (Corpus.writes t);
      (* A damaged readonly corpus is skipped in place, not renamed. *)
      write_file path "garbage\n";
      let _, report = Corpus.open_file ~readonly:true path in
      Alcotest.(check bool) "readonly quarantine reported" true
        (report.Corpus.or_quarantined <> None);
      Alcotest.(check bool) "readonly file left in place" true (Sys.file_exists path))

let test_shard_merge_dedup () =
  with_temp_path (fun base ->
      let e = differential_entry () in
      let _, s = static_entry () in
      (* Shard 0 and shard 1 overlap on [e]; shard 2 is missing; shard 3
         is damaged.  The merge keeps going and dedups by ident. *)
      Corpus.save ~path:(Corpus.shard_path ~base ~shard_id:0) [ e; s ];
      Corpus.save ~path:(Corpus.shard_path ~base ~shard_id:1) [ e ];
      write_file (Corpus.shard_path ~base ~shard_id:3) "not a corpus\n";
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun i ->
              let p = Corpus.shard_path ~base ~shard_id:i in
              if Sys.file_exists p then Sys.remove p)
            [ 0; 1; 2; 3 ])
        (fun () ->
          let m = Corpus.load_and_merge ~base ~shards:4 in
          Alcotest.(check (list string)) "merged entries dedup by ident"
            (List.sort compare (idents (roundtripped [ e; s ])))
            (idents m.Corpus.mr_entries);
          Alcotest.(check (list int)) "clean shards" [ 0; 1 ] m.Corpus.mr_loaded;
          Alcotest.(check (list int)) "missing shards" [ 2 ] m.Corpus.mr_missing;
          Alcotest.(check (list int)) "damaged shards quarantined" [ 3 ]
            (List.map fst m.Corpus.mr_quarantined);
          Alcotest.(check int) "entries surviving dedup" 2 m.Corpus.mr_added))

(* SIGKILL mid-append: a child process appends entries one at a time
   (cadence 1 — one atomic rewrite per add) and is killed at a random
   point.  Whatever the timing, the file on disk must load cleanly and
   hold a prefix of the adds — the atomic-rename recipe's guarantee.

   The child is this binary re-executed as [append_writer]: OCaml
   refuses [Unix.fork] in a process that has ever spawned a domain, and
   the earlier tests ran einsum on the default pool. *)
let writer_flag = "--append-writer"
let adds = 40

let append_writer path =
  let base = differential_entry () in
  let t, _ = Corpus.open_file ~every:1 path in
  print_endline "ready";
  for i = 1 to adds do
    ignore (Corpus.add t { base with Corpus.ce_seed = i })
  done;
  exit 0

let test_kill_mid_append_never_tears () =
  with_temp_path (fun path ->
      let base = differential_entry () in
      let ready, ready_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; writer_flag; path |]
          Unix.stdin ready_w Unix.stderr
      in
      Unix.close ready_w;
      let ready = Unix.in_channel_of_descr ready in
      (* Kill 20 ms into the appends, not into the writer's start-up. *)
      ignore (input_line ready);
      Unix.sleepf 0.02;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in ready;
      if Sys.file_exists path then
        match Corpus.load_result ~path with
        | Ok entries ->
            let n = List.length entries in
            Alcotest.(check bool)
              (Printf.sprintf "prefix of adds on disk (%d of %d)" n adds)
              true
              (n >= 0 && n <= adds);
            List.iter
              (fun e ->
                Alcotest.(check string) "entry signature intact" base.Corpus.ce_signature
                  e.Corpus.ce_signature)
              entries
        | Error err -> Alcotest.failf "killed writer tore the file: %s" (Corpus.string_of_error err))

let test_replay_semantics () =
  let e = differential_entry () in
  let t = Corpus.in_memory () in
  Alcotest.(check bool) "add" true (Corpus.add t e);
  (* Exact signature: rejected with zero tensor work. *)
  let alloc0 = Nd.Tensor.allocations () in
  (match Corpus.replay t conv with
  | Error (Guard.Counterexample _) -> ()
  | Error k -> Alcotest.failf "expected Counterexample, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "known counterexample passed replay");
  Alcotest.(check int) "exact-signature rejection allocates nothing" 0
    (Nd.Tensor.allocations () - alloc0);
  (* A healthy family sibling (same fingerprint, different signature)
     re-executes the recorded pair and passes: the recorded fault lived
     in the injection harness, not the operator. *)
  let sibling = Corpus.in_memory () in
  ignore (Corpus.add sibling { e with Corpus.ce_signature = "someone-else" });
  (match Corpus.replay sibling conv with
  | Ok () -> ()
  | Error k -> Alcotest.failf "healthy sibling rejected: %s" (Guard.kind_label k));
  let st = Corpus.stats sibling in
  Alcotest.(check int) "sibling was concretely re-executed" 1 st.Corpus.st_executed;
  Alcotest.(check int) "no rejection for the healthy sibling" 0 st.Corpus.st_rejected;
  (* A genuinely broken sibling still fails its recorded obligation:
     the corrupted gather violates bounds at the recorded valuation. *)
  let corrupt, s_entry = static_entry () in
  let broken = Corpus.in_memory () in
  ignore (Corpus.add broken { s_entry with Corpus.ce_signature = "someone-else" });
  (match Corpus.replay broken corrupt with
  | Error (Guard.Counterexample _) -> ()
  | Error k -> Alcotest.failf "expected Counterexample, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "broken sibling passed replay");
  (* No fingerprint overlap: pass in O(1), nothing executed. *)
  let unrelated = Corpus.in_memory () in
  ignore (Corpus.add unrelated e);
  let matmul = Syno.Zoo.matmul.Syno.Zoo.operator in
  (match Corpus.replay unrelated matmul with
  | Ok () -> ()
  | Error k -> Alcotest.failf "unrelated operator rejected: %s" (Guard.kind_label k));
  let st = Corpus.stats unrelated in
  Alcotest.(check int) "unrelated: no matches" 0 st.Corpus.st_matched

(* The gate: differential failure distilled on first sight, replay
   rejection (not differential) on the second — and replay outranks
   even the static stage. *)
let test_admit_replay_stage () =
  let corpus = Corpus.in_memory () in
  let fault = Differential.fault ~rate:1.0 Differential.Einsum in
  let gate =
    Validate.Admit.create ~corpus
      ~differential:(Differential.config ~fault ())
      ~valuations:vs ~check_valuations:vs ()
  in
  (match Validate.Admit.gate gate conv with
  | Error (Guard.Backend_mismatch _) -> ()
  | Error k -> Alcotest.failf "expected Backend_mismatch, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "faulted candidate admitted");
  let s = Validate.Admit.stats gate in
  Alcotest.(check int) "differential rejection recorded" 1
    s.Validate.Admit.rejected_differential;
  Alcotest.(check int) "counterexample distilled" 1 s.Validate.Admit.distilled;
  Alcotest.(check int) "corpus grew" 1 (Corpus.size corpus);
  (match Validate.Admit.gate gate conv with
  | Error (Guard.Counterexample _) -> ()
  | Error k -> Alcotest.failf "expected Counterexample on re-encounter, got %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "known counterexample admitted");
  let s = Validate.Admit.stats gate in
  Alcotest.(check int) "replay rejection recorded" 1 s.Validate.Admit.rejected_replay;
  Alcotest.(check int) "differential did not run again" 1
    s.Validate.Admit.rejected_differential;
  Alcotest.(check int) "nothing distilled twice" 1 s.Validate.Admit.distilled;
  (* Replay runs before static: a candidate both stages would reject
     carries the replay verdict. *)
  let corrupt, s_entry = static_entry () in
  let corpus2 = Corpus.in_memory () in
  ignore (Corpus.add corpus2 s_entry);
  let gate2 =
    Validate.Admit.create ~corpus:corpus2 ~static:[ List.hd vs ] ~valuations:vs ()
  in
  (match Validate.Admit.gate gate2 corrupt with
  | Error (Guard.Counterexample _) -> ()
  | Error (Guard.Static_violation _) ->
      Alcotest.fail "static ran before replay (stage order inverted)"
  | Error k -> Alcotest.failf "unexpected kind %s" (Guard.kind_label k)
  | Ok () -> Alcotest.fail "corrupted candidate admitted");
  (* Guard classification: counterexamples are permanent, no retries. *)
  Alcotest.(check bool) "Counterexample is permanent" true
    (Guard.permanent (Guard.Counterexample "x"))

let () =
  match Sys.argv with
  | [| _; flag; path |] when flag = writer_flag -> append_writer path
  | _ ->
  Alcotest.run "corpus"
    [
      ( "serialization",
        [
          Alcotest.test_case "hex-float round trip is exact" `Quick test_roundtrip_exact;
        ] );
      ( "durability",
        [
          Alcotest.test_case "corrupt file quarantined, never fatal" `Quick
            test_corrupt_file_quarantined;
          Alcotest.test_case "truncated file detected and quarantined" `Quick
            test_truncated_file_detected;
          Alcotest.test_case "readonly mode never writes or renames" `Quick
            test_readonly_never_writes;
          Alcotest.test_case "SIGKILL mid-append never tears the file" `Quick
            test_kill_mid_append_never_tears;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "merge dedups, quarantines, keeps going" `Quick
            test_shard_merge_dedup;
        ] );
      ( "replay",
        [
          Alcotest.test_case "exact hit free, siblings re-execute" `Quick
            test_replay_semantics;
          Alcotest.test_case "gate: distill once, replay thereafter" `Quick
            test_admit_replay_stage;
        ] );
    ]

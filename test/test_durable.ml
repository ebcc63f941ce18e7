(* The shared durable store: the load rules every snapshot format
   inherits, checked once per codec.  The central property: a snapshot
   cut at any byte offset either fails to load or loads the identical
   entries — never different data. *)

module Durable = Robust.Durable
module Checkpoint = Search.Checkpoint
module Corpus = Validate.Corpus
module Cache = Serve.Cache
module Differential = Validate.Differential

let with_temp_path f =
  let path = Filename.temp_file "syno_durable" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Fixtures: a multi-entry snapshot per codec ------------------------------ *)

let vs = Syno.Api.default_validation_valuations
let conv = Syno.Zoo.conv2d.Syno.Zoo.operator

let checkpoint_entries () =
  List.filteri (fun i _ -> i < 4) Syno.Zoo.all
  |> List.mapi (fun i (z : Syno.Zoo.entry) ->
         let op = z.Syno.Zoo.operator in
         {
           Checkpoint.signature = Pgraph.Graph.operator_signature op;
           operator = op;
           reward = 1.0 /. float_of_int (i + 3);
           visits = (10 * i) + 1;
           quarantined = i = 1;
           reason = (if i = 1 then Some "static_violation" else None);
         })

let corpus_entries () =
  let fault = Differential.fault ~rate:1.0 Differential.Einsum in
  let diff =
    match Differential.check_full ~config:(Differential.config ~fault ()) conv vs with
    | Error f -> Corpus.of_differential ~tolerance:1e-6 conv f
    | Ok _ -> Alcotest.fail "expected a differential failure under a rate-1.0 fault"
  in
  let corrupt = Differential.corrupt_operator conv in
  let static =
    match Analysis.Verify.program_opt corrupt (List.hd vs) with
    | Some (Analysis.Verify.Violation d) -> Corpus.of_static corrupt (List.hd vs) d
    | _ -> Alcotest.fail "expected a static bounds violation"
  in
  [ diff; static; { diff with Corpus.ce_seed = diff.Corpus.ce_seed + 1 } ]

let cache_entries () =
  List.mapi
    (fun i key ->
      {
        Cache.e_key = key;
        e_verdict = (if i mod 2 = 0 then "proved" else "padded");
        e_flops = 1000 * (i + 1);
        e_params = 10 + i;
        e_elements = 64;
        e_checksum = 1.0 /. float_of_int (i + 3);
        e_cold_seconds = 0.25 *. float_of_int (i + 1);
        e_spec_seconds = (if i = 1 then -1.0 else 0.125 /. float_of_int (i + 1));
      })
    [ "op a@N=1"; "op-b@N=2"; "op%c@N=3" ]

(* A codec with the entries it is exercised on. *)
type store = Store : string * 'a Durable.codec * (unit -> 'a list) -> store

let stores =
  [
    Store ("checkpoint", Checkpoint.codec, checkpoint_entries);
    Store ("corpus", Corpus.codec, corpus_entries);
    Store ("cache", Cache.codec, cache_entries);
  ]

(* --- Every-offset truncation ------------------------------------------------ *)

let test_every_offset_cut (Store (name, codec, entries)) () =
  with_temp_path (fun path ->
      Durable.save codec ~path (entries ());
      let text = read_file path in
      (* Compare renderings: the formats are exact, so equal text is
         equal data, and rendering sidesteps derived fields. *)
      let full =
        match Durable.load codec ~path with
        | Ok es -> Durable.to_string codec es
        | Error e ->
            Alcotest.failf "%s: intact file refused: %s" name (Durable.string_of_error codec e)
      in
      let silent = ref [] in
      for cut = 0 to String.length text - 1 do
        write_file path (String.sub text 0 cut);
        match Durable.load codec ~path with
        | Error _ -> ()
        | Ok es -> if Durable.to_string codec es <> full then silent := cut :: !silent
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "%s: offsets (of %d) that load different data" name (String.length text))
        [] (List.rev !silent))

(* --- Load rules -------------------------------------------------------------- *)

let expect_corrupt name = function
  | Error (Durable.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Corrupt, got %s" name (Durable.string_of_error Cache.codec e)
  | Ok _ -> Alcotest.failf "%s: loaded" name

let test_load_rules () =
  let text = Durable.to_string Cache.codec (cache_entries ()) in
  let drop_last_char s = String.sub s 0 (String.length s - 1) in
  expect_corrupt "no final newline" (Durable.of_string Cache.codec (drop_last_char text));
  let without_count =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (Astring.String.is_prefix ~affix:"entries:" l))
    |> String.concat "\n"
  in
  expect_corrupt "no count line" (Durable.of_string Cache.codec without_count);
  expect_corrupt "empty file" (Durable.of_string Cache.codec "");
  (* The count check runs before the newline check, so a file cut
     right after an entry line still reports what it lost. *)
  (match Durable.of_string Cache.codec "syno-serve-cache v1\nentries: 2" with
  | Error (Durable.Truncated { expected = 2; found = 0 }) -> ()
  | _ -> Alcotest.fail "count mismatch must win over the missing newline");
  Alcotest.(check string) "one line per error, named by the format's noun"
    "truncated cache snapshot: header declares 2 entries, found 0"
    (Durable.string_of_error Cache.codec (Durable.Truncated { expected = 2; found = 0 }))

(* --- Write cadence ----------------------------------------------------------- *)

(* The two-step recipe with no store around it: take, then write. *)
let write_taken = Option.iter Durable.write

let test_writer_cadence () =
  with_temp_path (fun path ->
      Sys.remove path;
      let es = cache_entries () in
      let w = Durable.writer Cache.codec ~path ~every:2 in
      let snapshot () = es in
      write_taken (Durable.note w snapshot);
      Alcotest.(check int) "below cadence: no write" 0 (Durable.writes w);
      write_taken (Durable.note w snapshot);
      Alcotest.(check int) "cadence reached: one write" 1 (Durable.writes w);
      write_taken (Durable.sync w snapshot);
      Alcotest.(check int) "sync with nothing pending: no write" 1 (Durable.writes w);
      write_taken (Durable.flush w snapshot);
      Alcotest.(check int) "flush with nothing pending: no write" 1 (Durable.writes w);
      Durable.mark w;
      Alcotest.(check int) "mark defers the write" 1 (Durable.writes w);
      write_taken (Durable.sync w snapshot);
      Alcotest.(check int) "sync writes what is pending" 2 (Durable.writes w);
      let fresh = Durable.writer Cache.codec ~path:(path ^ ".tmp") ~every:5 in
      write_taken (Durable.flush fresh snapshot);
      Alcotest.(check int) "flush of a never-written store writes" 1 (Durable.writes fresh);
      (match Durable.load Cache.codec ~path with
      | Ok loaded -> Alcotest.(check int) "snapshot on disk" (List.length es) (List.length loaded)
      | Error e -> Alcotest.fail (Durable.string_of_error Cache.codec e));
      (* Two snapshots written out of order: the older one is skipped. *)
      Durable.mark w;
      let older = Durable.sync w snapshot in
      Durable.mark w;
      let newer = Durable.sync w (fun () -> [ List.hd es ]) in
      write_taken newer;
      write_taken older;
      Alcotest.(check int) "an older snapshot after a newer one: skipped" 3 (Durable.writes w);
      match Durable.load Cache.codec ~path with
      | Ok loaded -> Alcotest.(check int) "the newer snapshot stays on disk" 1 (List.length loaded)
      | Error e -> Alcotest.fail (Durable.string_of_error Cache.codec e))

(* A save that fails leaves its changes pending: the next change past
   the cadence takes them again. *)
let test_failed_write_retried () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "syno_durable_%d" (Unix.getpid ()))
  in
  let path = Filename.concat dir "cache.snap" in
  let es = cache_entries () in
  let w = Durable.writer Cache.codec ~path ~every:2 in
  write_taken (Durable.note w (fun () -> es));
  (match write_taken (Durable.note w (fun () -> es)) with
  | () -> Alcotest.fail "a save into a missing directory succeeded"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check int) "failed save: no write" 0 (Durable.writes w);
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".tmp" ];
      Unix.rmdir dir)
    (fun () ->
      write_taken (Durable.note w (fun () -> es));
      Alcotest.(check int) "the next change retries" 1 (Durable.writes w);
      Alcotest.(check bool) "file on disk" true (Sys.file_exists path))

(* [poll ~seconds f]: whether [f] held before the deadline. *)
let poll ~seconds f =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () = f () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ())) in
  go ()

(* Domains [put] into one file-backed cache with a snapshot per put.
   After each [put] returns, its snapshot (or a newer one) is on disk;
   a load that starts after another finished never sees fewer
   entries; after [flush], the file loads to exactly the store. *)
let test_concurrent_puts () =
  with_temp_path (fun path ->
      Sys.remove path;
      let domains = 3 and per_domain = 30 in
      let cache, _ = Cache.open_file ~capacity:1000 ~every:1 path in
      let floor = Atomic.make 0 in
      let failures = Atomic.make [] in
      let fail msg =
        let rec push () =
          let old = Atomic.get failures in
          if not (Atomic.compare_and_set failures old (msg :: old)) then push ()
        in
        push ()
      in
      let worker d () =
        for j = 0 to per_domain - 1 do
          let key = Printf.sprintf "d%d-%d" d j in
          let e = { (List.hd (cache_entries ())) with Cache.e_key = key } in
          let seen = Atomic.get floor in
          Cache.put cache e;
          match Durable.load Cache.codec ~path with
          | Error err -> fail (Durable.string_of_error Cache.codec err)
          | Ok loaded ->
              let n = List.length loaded in
              if n < seen then fail (Printf.sprintf "%s: %d entries after %d" key n seen);
              if not (List.exists (fun e -> e.Cache.e_key = key) loaded) then
                fail (key ^ ": put returned before its snapshot was saved");
              let rec raise_floor () =
                let old = Atomic.get floor in
                if n > old && not (Atomic.compare_and_set floor old n) then raise_floor ()
              in
              raise_floor ()
        done
      in
      List.init domains (fun d -> Domain.spawn (worker d)) |> List.iter Domain.join;
      Cache.flush cache;
      Alcotest.(check (list string))
        "no snapshot went back or lagged its put" [] (Atomic.get failures);
      let store = path ^ ".store" in
      Cache.save ~path:store cache;
      let expected = read_file store in
      Sys.remove store;
      Alcotest.(check int) "every put kept" (domains * per_domain) (Cache.size cache);
      Alcotest.(check string) "the file loads to exactly the final store" expected
        (match Durable.load Cache.codec ~path with
        | Ok loaded -> Durable.to_string Cache.codec loaded
        | Error e -> Alcotest.fail (Durable.string_of_error Cache.codec e)))

(* The render runs after the store's lock is released: while it waits
   on a latch, another domain takes the lock (the test's own mutex
   standing in for the store's).  Both waits have deadlines, so a
   render under the lock fails the test instead of hanging it. *)
let test_render_outside_store_lock () =
  with_temp_path (fun path ->
      let entered = Atomic.make false and release = Atomic.make false in
      let codec =
        Durable.codec ~header:"latch v1" ~noun:"latch"
          ~render:(fun buf e ->
            Atomic.set entered true;
            ignore (poll ~seconds:10.0 (fun () -> Atomic.get release));
            Buffer.add_string buf ("entry: " ^ e ^ "\n"))
          ~parse:(fun line _ -> Ok line)
          ()
      in
      let w = Durable.writer codec ~path ~every:1 in
      let store_lock = Mutex.create () in
      let writer =
        Domain.spawn (fun () ->
            Durable.update store_lock (fun () -> ((), Durable.note w (fun () -> [ "a" ]))))
      in
      let rendering = poll ~seconds:10.0 (fun () -> Atomic.get entered) in
      let lock_free =
        rendering
        && poll ~seconds:2.0 (fun () ->
               Mutex.try_lock store_lock && (Mutex.unlock store_lock; true))
      in
      Atomic.set release true;
      Domain.join writer;
      Alcotest.(check bool) "render started" true rendering;
      Alcotest.(check bool) "store lock free while the render waits" true lock_free;
      Alcotest.(check int) "written" 1 (Durable.writes w))

(* --- Round trip on generated entries ----------------------------------------- *)

(* Each codec must carry every value the program can put in an entry:
   floats by bits (a NaN only has to load as a NaN), including the
   non-finite, negative-zero, subnormal and extreme ones; integers up
   to [max_int]; operators from the zoo and from random synthesis.  The
   codecs sort on load, so a draw is sorted the same way first. *)

let float_same a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0;
            Float.max_float; -.Float.max_float; Float.min_float; 5e-324; -5e-324;
            Int64.float_of_bits 0x000fffffffffffffL; Float.epsilon;
          ];
        map Int64.float_of_bits ui64;
        float;
      ])

let gen_count = QCheck.Gen.(oneof [ oneofl [ 0; 1; max_int; max_int - 1 ]; int_bound max_int ])

let gen_seed = QCheck.Gen.(oneof [ oneofl [ 0; min_int; max_int; -1 ]; int ])

(* Operators the program persists: the zoo and random synthesis
   completions over the conv search space. *)
let random_operators =
  lazy
    (let open Syno.Zoo.Vars in
     let sz = Shape.Size.of_var in
     let base =
       Search.Enumerate.default_config
         ~output_shape:[ sz n; sz c_out; sz h; sz w ]
         ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
         ~valuations:[ conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:8 ~k:3 ~g:2 ~s:2 () ]
         ()
     in
     let cfg =
       {
         base with
         Search.Enumerate.max_prims = 7;
         coefficient_candidates = [ sz k; sz s ];
         reduce_candidates = [ sz c_in; sz k ];
         frozen_sizes = [ sz n ];
       }
     in
     List.init 40 (fun seed ->
         Search.Enumerate.random_completion cfg (Nd.Rng.create ~seed) ~use_distance:true)
     |> List.filter_map Fun.id)

let gen_operator =
  QCheck.Gen.(
    let* zoo = bool in
    if zoo then map (fun (z : Syno.Zoo.entry) -> z.Syno.Zoo.operator) (oneofl Syno.Zoo.all)
    else oneofl (Lazy.force random_operators))

let gen_dims = QCheck.Gen.(array_size (return 7) (int_range 1 64))

(* The server's cache key: operator signature, then the valuation token
   of the request. *)
let gen_key =
  QCheck.Gen.(
    let* op = gen_operator in
    let* d = gen_dims in
    return
      (Printf.sprintf "%s@n%d.ci%d.co%d.hw%d.k%d.g%d.s%d"
         (Pgraph.Graph.operator_signature op)
         d.(0) d.(1) d.(2) d.(3) d.(4) d.(5) d.(6)))

let gen_valuation =
  QCheck.Gen.map
    (fun d ->
      Syno.Zoo.Vars.conv_valuation ~n:d.(0) ~c_in:d.(1) ~c_out:d.(2) ~hw:d.(3) ~k:d.(4) ~g:d.(5)
        ~s:d.(6) ())
    gen_dims

let gen_checkpoint_entry =
  QCheck.Gen.(
    let* op = gen_operator in
    let* reward = gen_float in
    let* visits = gen_count in
    let* quarantined = bool in
    let* reason =
      opt
        (oneofl
           (List.map Robust.Guard.kind_label
              Robust.Guard.
                [
                  Eval_error ""; Non_finite; Timeout; Injected; Over_budget ""; Backend_mismatch "";
                  Diverged ""; Static_violation ""; Counterexample "";
                ]))
    in
    return
      {
        Checkpoint.signature = Pgraph.Graph.operator_signature op;
        operator = op;
        reward;
        visits;
        quarantined;
        reason;
      })

let gen_corpus_entry =
  QCheck.Gen.(
    let* op = gen_operator in
    let* origin = oneofl [ Corpus.Differential; Corpus.Static ] in
    let* valuation = gen_valuation in
    let* seed = gen_seed in
    let* tolerance = gen_float in
    let* backend = opt (oneofl Differential.backends) in
    let* detail =
      oneofl
        [
          "";
          "non-finite result";
          "injected fault";
          "specialize[3] = 0x1.8p+1 but einsum[3] = nan";
          "out-of-window access in stage 1: [0, 9) not within [0, 8)";
        ]
    in
    let* abs_err = gen_float in
    let* fail = opt (triple gen_count gen_float gen_float) in
    return
      {
        Corpus.ce_operator = op;
        ce_signature = Pgraph.Graph.operator_signature op;
        ce_fingerprint = Corpus.fingerprint op;
        ce_origin = origin;
        ce_valuation = valuation;
        ce_seed = seed;
        ce_tolerance = tolerance;
        ce_backend = backend;
        ce_detail = detail;
        ce_abs_err = abs_err;
        ce_fail = fail;
      })

let gen_cache_entry =
  QCheck.Gen.(
    let* key = gen_key in
    let* verdict = oneofl [ "proved"; "padded" ] in
    let* flops = gen_count in
    let* params = gen_count in
    let* elements = gen_count in
    let* checksum = gen_float in
    let* cold = gen_float in
    let* spec = gen_float in
    return
      {
        Cache.e_key = key;
        e_verdict = verdict;
        e_flops = flops;
        e_params = params;
        e_elements = elements;
        e_checksum = checksum;
        e_cold_seconds = cold;
        e_spec_seconds = spec;
      })

let same_operator a b = Pgraph.Trace_io.to_string a = Pgraph.Trace_io.to_string b

let same_checkpoint (a : Checkpoint.entry) (b : Checkpoint.entry) =
  a.signature = b.signature && same_operator a.operator b.operator
  && float_same a.reward b.reward && a.visits = b.visits && a.quarantined = b.quarantined
  && a.reason = b.reason

let same_corpus (a : Corpus.entry) (b : Corpus.entry) =
  let same_fail =
    match (a.ce_fail, b.ce_fail) with
    | None, None -> true
    | Some (i, e, g), Some (i', e', g') -> i = i' && float_same e e' && float_same g g'
    | _ -> false
  in
  same_operator a.ce_operator b.ce_operator
  && a.ce_signature = b.ce_signature && a.ce_fingerprint = b.ce_fingerprint
  && a.ce_origin = b.ce_origin
  && Shape.Valuation.bindings a.ce_valuation = Shape.Valuation.bindings b.ce_valuation
  && a.ce_seed = b.ce_seed && float_same a.ce_tolerance b.ce_tolerance
  && a.ce_backend = b.ce_backend && a.ce_detail = b.ce_detail
  && float_same a.ce_abs_err b.ce_abs_err && same_fail

let same_cache (a : Cache.entry) (b : Cache.entry) =
  a.e_key = b.e_key && a.e_verdict = b.e_verdict && a.e_flops = b.e_flops
  && a.e_params = b.e_params && a.e_elements = b.e_elements
  && float_same a.e_checksum b.e_checksum
  && float_same a.e_cold_seconds b.e_cold_seconds
  && float_same a.e_spec_seconds b.e_spec_seconds

let round_trip name codec gen ~order ~same =
  QCheck.Test.make ~name:(name ^ ": generated entries round-trip") ~count:100
    (QCheck.make
       ~print:(fun es -> Durable.to_string codec es)
       QCheck.Gen.(map (List.stable_sort order) (list_size (int_range 0 6) gen)))
    (fun es ->
      match Durable.of_string codec (Durable.to_string codec es) with
      | Error e -> QCheck.Test.fail_reportf "refused: %s" (Durable.string_of_error codec e)
      | Ok loaded -> List.length loaded = List.length es && List.for_all2 same es loaded)

let round_trips =
  [
    round_trip "checkpoint" Checkpoint.codec gen_checkpoint_entry
      ~order:(fun (a : Checkpoint.entry) b -> compare a.signature b.signature)
      ~same:same_checkpoint;
    round_trip "corpus" Corpus.codec gen_corpus_entry
      ~order:(fun a b -> compare (Corpus.ident a) (Corpus.ident b))
      ~same:same_corpus;
    round_trip "cache" Cache.codec gen_cache_entry ~order:(fun _ _ -> 0) ~same:same_cache;
  ]

let () =
  Alcotest.run "durable"
    [
      ( "truncation",
        List.map
          (fun (Store (name, _, _) as s) ->
            Alcotest.test_case (name ^ ": every cut refused or identical") `Quick
              (test_every_offset_cut s))
          stores );
      ( "store",
        [
          Alcotest.test_case "load rules and their order" `Quick test_load_rules;
          Alcotest.test_case "write cadence" `Quick test_writer_cadence;
          Alcotest.test_case "failed write retried" `Quick test_failed_write_retried;
          Alcotest.test_case "concurrent puts" `Quick test_concurrent_puts;
          Alcotest.test_case "render outside the store lock" `Quick test_render_outside_store_lock;
        ] );
      ("round trip", List.map QCheck_alcotest.to_alcotest round_trips);
    ]

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

let test_writer_cadence () =
  with_temp_path (fun path ->
      Sys.remove path;
      let es = cache_entries () in
      let w = Durable.writer Cache.codec ~path ~every:2 in
      let snapshot () = es in
      Durable.note w snapshot;
      Alcotest.(check int) "below cadence: no write" 0 (Durable.writes w);
      Durable.note w snapshot;
      Alcotest.(check int) "cadence reached: one write" 1 (Durable.writes w);
      Durable.sync w snapshot;
      Alcotest.(check int) "sync with nothing pending: no write" 1 (Durable.writes w);
      Durable.flush w snapshot;
      Alcotest.(check int) "flush with nothing pending: no write" 1 (Durable.writes w);
      Durable.mark w;
      Alcotest.(check int) "mark defers the write" 1 (Durable.writes w);
      Durable.sync w snapshot;
      Alcotest.(check int) "sync writes what is pending" 2 (Durable.writes w);
      let fresh = Durable.writer Cache.codec ~path:(path ^ ".tmp") ~every:5 in
      Durable.flush fresh snapshot;
      Alcotest.(check int) "flush of a never-written store writes" 1 (Durable.writes fresh);
      match Durable.load Cache.codec ~path with
      | Ok loaded -> Alcotest.(check int) "snapshot on disk" (List.length es) (List.length loaded)
      | Error e -> Alcotest.fail (Durable.string_of_error Cache.codec e))

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
        ] );
    ]

(* Tests for the serving subsystem: wire-protocol round-trips, the LRU
   result cache and its crash-tolerant snapshots, bounded admission,
   and an embedded end-to-end daemon (in-process, signals disabled)
   covering cold/cached eval, the cold checksum's wire contract,
   deadline timeouts, poison containment with corpus replay (including
   a miscompiled served kernel), warm restart from a persisted cache,
   and graceful drain. *)

module P = Serve.Protocol
module Cache = Serve.Cache
module Admission = Serve.Admission
module Server = Serve.Server
module Client = Serve.Client

let with_temp_dir f =
  let dir = Filename.temp_file "syno_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* --- Protocol --------------------------------------------------------------- *)

let test_protocol_request_roundtrip () =
  (* Every byte a value can carry must survive render -> parse,
     including the separators the framing itself uses. *)
  let nasty = "a b%=\n\tc\x01\x7f\xffend" in
  let rq =
    { P.rq_id = "req-42"; rq_verb = P.Eval; rq_params = [ ("trace", nasty); ("n", "4") ] }
  in
  (match P.parse_request (P.render_request rq) with
  | Ok back ->
      Alcotest.(check string) "id" rq.P.rq_id back.P.rq_id;
      Alcotest.(check bool) "verb" true (back.P.rq_verb = P.Eval);
      Alcotest.(check (option string)) "nasty value intact" (Some nasty)
        (P.param back "trace");
      Alcotest.(check (option string)) "second param" (Some "4") (P.param back "n")
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* Last occurrence wins: clients override defaults by appending. *)
  let dup =
    { P.rq_id = "d"; rq_verb = P.Eval; rq_params = [ ("k", "old"); ("k", "new") ] }
  in
  match P.parse_request (P.render_request dup) with
  | Ok back -> Alcotest.(check (option string)) "last wins" (Some "new") (P.param back "k")
  | Error e -> Alcotest.failf "dup round-trip failed: %s" e

let test_protocol_response_roundtrip () =
  let ok = P.Resp_ok [ ("verdict", "proved"); ("detail", "has spaces") ] in
  (match P.parse_response (P.render_response ~id:"r1" ok) with
  | Ok ("r1", P.Resp_ok ps) ->
      Alcotest.(check (option string)) "param" (Some "has spaces") (List.assoc_opt "detail" ps)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "ok round-trip: %s" e);
  let err =
    P.Resp_error
      {
        err_kind = "overloaded";
        err_detail = "queue depth 64";
        err_retry_after = Some 0.05;
      }
  in
  (match P.parse_response (P.render_response ~id:"r2" err) with
  | Ok ("r2", P.Resp_error { err_kind; err_detail; err_retry_after }) ->
      Alcotest.(check string) "kind" "overloaded" err_kind;
      Alcotest.(check string) "detail" "queue depth 64" err_detail;
      Alcotest.(check (option (float 1e-9))) "retry-after" (Some 0.05) err_retry_after
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "error round-trip: %s" e);
  let no_retry =
    P.Resp_error { err_kind = "timeout"; err_detail = "x"; err_retry_after = None }
  in
  match P.parse_response (P.render_response ~id:"r3" no_retry) with
  | Ok ("r3", P.Resp_error { err_retry_after; _ }) ->
      Alcotest.(check (option (float 0.0))) "no retry-after" None err_retry_after
  | _ -> Alcotest.fail "no-retry round-trip failed"

let test_protocol_rejects_junk () =
  let bad s =
    match P.parse_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed junk %S" s
  in
  bad "";
  bad "only-an-id";
  bad "id not-a-verb";
  bad "id eval naked-no-equals";
  (match P.decode "%zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded bad escape");
  Alcotest.(check bool) "empty not a token" false (P.is_token "");
  Alcotest.(check bool) "space not a token" false (P.is_token "a b");
  Alcotest.(check bool) "= not a token" false (P.is_token "k=v");
  Alcotest.(check bool) "plain token ok" true (P.is_token "req-42");
  let rq = { P.rq_id = "i"; rq_verb = P.Eval; rq_params = [ ("n", "junk"); ("d", "nan") ] } in
  (match P.int_param rq "n" ~default:1 with
  | Error msg ->
      Alcotest.(check bool) "int error names key" true
        (Astring.String.is_infix ~affix:"n" msg)
  | Ok _ -> Alcotest.fail "accepted junk int");
  (match P.float_param rq "d" ~default:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted non-finite float");
  match P.int_param rq "absent" ~default:7 with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "default not applied"

(* Generated round-trips: ids and keys are tokens, values arbitrary
   bytes with the framing's own separators and high bytes drawn often. *)
let gen_token =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0x21 0x7e)) (int_range 1 8)
    |> map (String.map (fun c -> if c = '=' then '_' else c)))

let gen_value =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (3, char); (2, oneofl [ ' '; '='; '%'; '\n'; '\x80'; '\xff' ]) ])
      (int_range 0 24))

let gen_params = QCheck.Gen.(list_size (int_range 0 5) (pair gen_token gen_value))

let gen_request =
  QCheck.Gen.(
    map3
      (fun rq_id rq_verb rq_params -> { P.rq_id; rq_verb; rq_params })
      gen_token
      (oneofl [ P.Eval; P.Lint; P.Search; P.Status; P.Ping; P.Drain ])
      gen_params)

(* [retry-after] renders with [%g], so only values [%g] prints exactly:
   quarters below 10^4. *)
let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun ps -> P.Resp_ok ps) gen_params;
        map3
          (fun err_kind err_detail err_retry_after ->
            P.Resp_error { err_kind; err_detail; err_retry_after })
          (map (String.map (fun c -> if c = '%' then '_' else c)) gen_token)
          gen_value
          (opt (map (fun q -> float_of_int q /. 4.0) (int_range 0 39_999)));
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"parse_request (render_request r) = Ok r" ~count:500
    (QCheck.make ~print:P.render_request gen_request)
    (fun rq -> P.parse_request (P.render_request rq) = Ok rq)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"parse_response (render_response ~id r) = Ok (id, r)" ~count:500
    (QCheck.make
       ~print:(fun (id, r) -> P.render_response ~id r)
       QCheck.Gen.(pair gen_token gen_response))
    (fun (id, r) -> P.parse_response (P.render_response ~id r) = Ok (id, r))

let prop_parsers_total =
  QCheck.Test.make ~name:"parse_request and parse_response never raise" ~count:1000
    QCheck.(make ~print:Print.string Gen.(string_size ~gen:char (int_range 0 64)))
    (fun line ->
      (match P.parse_request line with Ok _ | Error _ -> ());
      match P.parse_response line with Ok _ | Error _ -> true)

let prop_line_cap =
  QCheck.Test.make ~name:"a line of max_line + 1 bytes is refused by both parsers" ~count:20
    (QCheck.make
       ~print:(fun s -> String.sub s 0 32 ^ "...")
       QCheck.Gen.(string_size ~gen:char (return (P.max_line + 1))))
    (fun line -> Result.is_error (P.parse_request line) && Result.is_error (P.parse_response line))

(* The encoder as it was first written, one [Printf] call per escape:
   [P.encode] must match it byte for byte. *)
let encode_oracle s =
  let plain c = c > ' ' && c <= '~' && c <> '%' in
  String.to_seq s
  |> Seq.map (fun c ->
         if plain c then String.make 1 c else Printf.sprintf "%%%02X" (Char.code c))
  |> List.of_seq |> String.concat ""

(* Every byte value, drawn uniformly, and the boundaries of the plain
   range drawn often. *)
let gen_bytes =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char);
             (1, oneofl [ '\x00'; '\x1f'; ' '; '!'; '%'; '='; '~'; '\x7f'; '\x80'; '\xff' ]);
           ])
      (int_range 0 64))

let prop_encode_oracle =
  QCheck.Test.make ~name:"encode s = the Printf encoder's output, byte for byte" ~count:1000
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun s -> P.encode s = encode_oracle s)

let prop_encode_decode =
  QCheck.Test.make ~name:"decode (encode s) = Ok s" ~count:1000
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun s -> P.decode (P.encode s) = Ok s)

let test_encode_every_byte () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "all 256 bytes" (encode_oracle all) (P.encode all);
  Alcotest.(check string) "uppercase hex" "a%20b%25%0A%FF" (P.encode "a b%\n\xff")

(* --- Cache ------------------------------------------------------------------ *)

let entry ?(checksum = 1.5) ?(spec = -1.0) key =
  {
    Cache.e_key = key;
    e_verdict = "proved";
    e_flops = 1000;
    e_params = 10;
    e_elements = 64;
    e_checksum = checksum;
    e_cold_seconds = 0.25;
    e_spec_seconds = spec;
  }

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.put c (entry "a");
  Cache.put c (entry "b");
  (* Touch "a" so "b" is the least recently used when "c" arrives. *)
  Alcotest.(check bool) "hit a" true (Cache.find c "a" <> None);
  Cache.put c (entry "c");
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a retained" true (Cache.find c "a" <> None);
  Alcotest.(check bool) "c present" true (Cache.find c "c" <> None);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check int) "size bounded" 2 (Cache.size c)

let test_cache_persistence_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "cache.snap" in
      let c, report = Cache.open_file ~capacity:8 ~every:1 path in
      Alcotest.(check int) "fresh file loads nothing" 0 report.Cache.or_loaded;
      (* A checksum with no short decimal form must survive the %h
         round-trip bit-for-bit. *)
      Cache.put c (entry ~checksum:(1.0 /. 3.0) "op-a@v1");
      Cache.put c (entry "op-b@v1");
      Cache.flush c;
      let c2, report2 = Cache.open_file ~capacity:8 path in
      Alcotest.(check int) "both entries load" 2 report2.Cache.or_loaded;
      Alcotest.(check bool) "no quarantine" true (report2.Cache.or_quarantined = None);
      match Cache.find c2 "op-a@v1" with
      | Some e ->
          Alcotest.(check (float 0.0)) "checksum bit-exact" (1.0 /. 3.0) e.Cache.e_checksum;
          Alcotest.(check string) "verdict" "proved" e.Cache.e_verdict
      | None -> Alcotest.fail "persisted entry missing")

let test_cache_spec_seconds_compat () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "cache.snap" in
      let c, _ = Cache.open_file ~capacity:8 ~every:1 path in
      Cache.put c (entry ~spec:(1.0 /. 7.0) "op-spec@v1");
      Cache.put c (entry "op-plain@v1");
      Cache.flush c;
      let c2, report = Cache.open_file ~capacity:8 path in
      Alcotest.(check int) "both load" 2 report.Cache.or_loaded;
      (match Cache.find c2 "op-spec@v1" with
      | Some e ->
          Alcotest.(check (float 0.0)) "spec bit-exact" (1.0 /. 7.0) e.Cache.e_spec_seconds
      | None -> Alcotest.fail "spec entry missing");
      (match Cache.find c2 "op-plain@v1" with
      | Some e ->
          Alcotest.(check bool) "unspecialized negative" true (e.Cache.e_spec_seconds < 0.0)
      | None -> Alcotest.fail "plain entry missing");
      (* Snapshots written before the spec field existed still load. *)
      let legacy =
        "syno-serve-cache v1\nentries: 1\n\
         entry: key legacy@v1 verdict proved flops 1 params 1 elements 1 checksum 0x1p-1 \
         cold 0x1p-3\n"
      in
      match Cache.of_string_result legacy with
      | Error _ -> Alcotest.fail "legacy snapshot rejected"
      | Ok c3 -> (
          match Cache.find c3 "legacy@v1" with
          | Some e ->
              Alcotest.(check (float 0.0)) "legacy spec default" (-1.0) e.Cache.e_spec_seconds
          | None -> Alcotest.fail "legacy entry missing"))

let test_cache_quarantines_garbage () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "cache.snap" in
      let oc = open_out path in
      output_string oc "this is not a cache snapshot\n";
      close_out oc;
      let c, report = Cache.open_file path in
      Alcotest.(check int) "nothing loaded" 0 report.Cache.or_loaded;
      (match report.Cache.or_quarantined with
      | Some (_, Cache.Bad_header _) -> ()
      | Some (_, e) -> Alcotest.failf "wrong error: %s" (Cache.string_of_error e)
      | None -> Alcotest.fail "garbage not quarantined");
      Alcotest.(check bool) "moved aside" true (Sys.file_exists (path ^ ".corrupt"));
      (* The daemon keeps serving with a fresh cache on the same path. *)
      Cache.put c (entry "fresh");
      Cache.flush c;
      let _, report3 = Cache.open_file path in
      Alcotest.(check int) "fresh snapshot readable" 1 report3.Cache.or_loaded)

let test_cache_detects_truncation () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "cache.snap" in
      let c, _ = Cache.open_file path in
      Cache.put c (entry "a");
      Cache.put c (entry "b");
      Cache.flush c;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* Claim more entries than the file carries, as a crash that lost
         the tail would. *)
      let lying =
        match Astring.String.cut ~sep:"entries: 2" text with
        | Some (before, after) -> before ^ "entries: 5" ^ after
        | None -> Alcotest.fail "snapshot missing its count line"
      in
      let oc = open_out_bin path in
      output_string oc lying;
      close_out oc;
      let _, report = Cache.open_file path in
      match report.Cache.or_quarantined with
      | Some (_, Cache.Truncated { expected = 5; found = 2 }) -> ()
      | Some (_, e) -> Alcotest.failf "wrong error: %s" (Cache.string_of_error e)
      | None -> Alcotest.fail "truncation not detected")

(* --- Admission -------------------------------------------------------------- *)

let test_admission_sheds_on_depth_and_bytes () =
  let q = Admission.create { Admission.max_depth = 2; max_bytes = 100; retry_after = 0.25 } in
  Alcotest.(check bool) "first admitted" true (Admission.offer q ~bytes:10 1 = Ok ());
  Alcotest.(check bool) "second admitted" true (Admission.offer q ~bytes:10 2 = Ok ());
  (match Admission.offer q ~bytes:10 3 with
  | Error shed ->
      Alcotest.(check int) "reports depth" 2 shed.Admission.sh_depth;
      Alcotest.(check (float 0.0)) "echoes retry-after" 0.25 shed.Admission.sh_retry_after
  | Ok () -> Alcotest.fail "third must shed on depth");
  (* A worker taking one frees a depth slot, but bytes stay in flight
     until completion. *)
  Alcotest.(check bool) "take" true (Admission.take q = Some 1);
  (match Admission.offer q ~bytes:95 4 with
  | Error shed -> Alcotest.(check int) "bytes pressure reported" 20 shed.Admission.sh_bytes
  | Ok () -> Alcotest.fail "must shed on bytes");
  Alcotest.(check bool) "small one fits" true (Admission.offer q ~bytes:5 5 = Ok ());
  Admission.complete q ~bytes:10;
  Alcotest.(check int) "completion releases bytes" 15 (Admission.inflight_bytes q);
  Alcotest.(check int) "sheds counted" 2 (Admission.shed_count q);
  Alcotest.(check int) "admissions counted" 3 (Admission.admitted_count q)

let test_admission_close_drains () =
  let q = Admission.create { Admission.max_depth = 8; max_bytes = 100; retry_after = 0.1 } in
  Alcotest.(check bool) "admitted" true (Admission.offer q ~bytes:1 1 = Ok ());
  Alcotest.(check bool) "admitted" true (Admission.offer q ~bytes:1 2 = Ok ());
  Admission.close q;
  (match Admission.offer q ~bytes:1 3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "closed queue must shed");
  Alcotest.(check bool) "drains first" true (Admission.take q = Some 1);
  Alcotest.(check bool) "drains second" true (Admission.take q = Some 2);
  Alcotest.(check bool) "then signals exit" true (Admission.take q = None);
  let q2 = Admission.create Admission.default_config in
  Alcotest.(check bool) "admitted" true (Admission.offer q2 ~bytes:1 1 = Ok ());
  Admission.close ~discard:true q2;
  Alcotest.(check bool) "discard drops queued work" true (Admission.take q2 = None)

(* --- End-to-end daemon ------------------------------------------------------ *)

let daemon_config dir =
  {
    (Server.default_config ~socket:(Filename.concat dir "sock")) with
    Server.cache_path = Some (Filename.concat dir "cache.snap");
    cache_every = 1;
    corpus_path = Some (Filename.concat dir "bugs.corpus");
    workers = 1;
    guard = Robust.Guard.policy ~retries:0 ~backoff:0.0 ();
  }

let with_daemon cfg f =
  let d = Domain.spawn (fun () -> Server.run ~signals:false cfg) in
  let conn =
    match Client.connect ~timeout:10.0 cfg.Server.socket_path with
    | Ok c -> c
    | Error e ->
        ignore (Domain.join d);
        Alcotest.failf "connect: %s" e
  in
  let finish () =
    (match Client.call ~timeout:10.0 conn { P.rq_id = "drain"; rq_verb = P.Drain; rq_params = [] } with
    | Ok (P.Resp_ok _) -> ()
    | Ok (P.Resp_error { err_kind; _ }) -> Alcotest.failf "drain refused: %s" err_kind
    | Error e -> Alcotest.failf "drain: %s" e);
    Client.close conn;
    Domain.join d
  in
  let result =
    try f conn
    with e ->
      (try ignore (finish ()) with _ -> ());
      raise e
  in
  let code = finish () in
  Alcotest.(check int) "daemon drains to exit 0" 0 code;
  result

let call conn ?(params = []) id verb =
  match Client.call ~timeout:30.0 conn { P.rq_id = id; rq_verb = verb; rq_params = params } with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "call %s: %s" id e

let ok_param resp key =
  match resp with
  | P.Resp_ok ps -> List.assoc_opt key ps
  | P.Resp_error { err_kind; err_detail; _ } ->
      Alcotest.failf "unexpected error %s (%s)" err_kind err_detail

let err_kind = function
  | P.Resp_error { err_kind; _ } -> err_kind
  | P.Resp_ok _ -> Alcotest.fail "expected a typed error"

let test_daemon_eval_cache_and_errors () =
  with_temp_dir (fun dir ->
      with_daemon (daemon_config dir) (fun conn ->
          (* Cold, then cached. *)
          let cold = call conn ~params:[ ("op", "conv1x1") ] "e1" P.Eval in
          Alcotest.(check (option string)) "cold" (Some "0") (ok_param cold "cached");
          Alcotest.(check bool) "verdict present" true (ok_param cold "verdict" <> None);
          let warm = call conn ~params:[ ("op", "conv1x1") ] "e2" P.Eval in
          Alcotest.(check (option string)) "cached" (Some "1") (ok_param warm "cached");
          Alcotest.(check (option string)) "same checksum" (ok_param cold "checksum")
            (ok_param warm "checksum");
          (* Unknown operator and junk parameters die as bad_request. *)
          Alcotest.(check string) "unknown op" "bad_request"
            (err_kind (call conn ~params:[ ("op", "no-such-op") ] "e3" P.Eval));
          Alcotest.(check string) "junk valuation" "bad_request"
            (err_kind (call conn ~params:[ ("op", "conv1x1"); ("n", "junk") ] "e4" P.Eval));
          (* An unmeetable deadline is a typed timeout, not a hang. *)
          Alcotest.(check string) "timeout"
            "timeout"
            (err_kind
               (call conn
                  ~params:[ ("op", "conv2d"); ("cache", "0"); ("deadline", "0.000001") ]
                  "e5" P.Eval));
          (* Daemon still serving afterwards. *)
          (match call conn "p1" P.Ping with
          | P.Resp_ok _ -> ()
          | P.Resp_error _ -> Alcotest.fail "ping after timeout");
          (* Status reflects the traffic. *)
          let st = call conn "s1" P.Status in
          (match ok_param st "cache_hits" with
          | Some h -> Alcotest.(check bool) "hits counted" true (int_of_string h >= 1)
          | None -> Alcotest.fail "status missing cache_hits");
          Alcotest.(check (option string)) "not draining" (Some "0") (ok_param st "draining")))

let test_daemon_poison_and_replay () =
  with_temp_dir (fun dir ->
      with_daemon (daemon_config dir) (fun conn ->
          let poisoned =
            call conn
              ~params:
                [ ("op", "conv1x1"); ("cache", "0"); ("fault_backend", "einsum");
                  ("fault_rate", "1"); ("fault_seed", "3") ]
              "p1" P.Eval
          in
          Alcotest.(check string) "typed poison" "backend_mismatch" (err_kind poisoned);
          (match call conn "p2" P.Ping with
          | P.Resp_ok _ -> ()
          | P.Resp_error _ -> Alcotest.fail "daemon died with the request");
          (* The poisoned operator was distilled: a fault-free
             re-encounter is rejected by corpus replay before any
             evaluation. *)
          let replay = call conn ~params:[ ("op", "conv1x1"); ("cache", "0") ] "p3" P.Eval in
          Alcotest.(check string) "replay rejects" "counterexample" (err_kind replay)))

(* The served kernel is one of the cross-checked backends: a
   miscompiled specialized forward is a typed mismatch, distilled into
   the corpus under the [specialize] label, and the operator's next
   request is rejected by replay.  conv2d certifies at the default
   valuation, so the specialized backend runs. *)
let test_daemon_specialize_cross_checked () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config dir in
      with_daemon cfg (fun conn ->
          let poisoned =
            call conn
              ~params:
                [ ("op", "conv2d"); ("cache", "0"); ("fault_backend", "specialize");
                  ("fault_rate", "1") ]
              "s1" P.Eval
          in
          Alcotest.(check string) "typed mismatch" "backend_mismatch" (err_kind poisoned);
          (match Validate.Corpus.load_result ~path:(Option.get cfg.Server.corpus_path) with
          | Ok entries ->
              Alcotest.(check bool) "corpus entry names the specialize backend" true
                (List.exists
                   (fun e ->
                     e.Validate.Corpus.ce_backend = Some Validate.Differential.Specialized)
                   entries)
          | Error e -> Alcotest.failf "corpus: %s" (Validate.Corpus.string_of_error e));
          let replay = call conn ~params:[ ("op", "conv2d"); ("cache", "0") ] "s2" P.Eval in
          Alcotest.(check string) "replay rejects" "counterexample" (err_kind replay)))

(* Answers the cold pipeline must keep: a valuation the operator does
   not instantiate at (8 channels in 3 groups) is a typed eval_error
   with a fixed detail, and nothing is distilled for it. *)
let test_daemon_not_instantiable () =
  with_temp_dir (fun dir ->
      with_daemon (daemon_config dir) (fun conn ->
          (match
             call conn
               ~params:[ ("op", "grouped_conv"); ("c_in", "8"); ("g", "3"); ("cache", "0") ]
               "n1" P.Eval
           with
          | P.Resp_error { err_kind; err_detail; _ } ->
              Alcotest.(check string) "kind" "eval_error" err_kind;
              Alcotest.(check string) "detail" "not instantiable under valuation" err_detail
          | P.Resp_ok _ -> Alcotest.fail "8 channels in 3 groups must not evaluate");
          Alcotest.(check (option string)) "nothing distilled" (Some "0")
            (ok_param (call conn "n2" P.Status) "corpus_size")))

(* The daemon and search distill through the same gate: a poisoned
   request leaves exactly the corpus entry [Admit.gate] distills
   in-process for the same operator, valuation and fault. *)
let test_daemon_distills_like_search () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config dir in
      with_daemon cfg (fun conn ->
          Alcotest.(check string) "typed poison" "backend_mismatch"
            (err_kind
               (call conn
                  ~params:
                    [ ("op", "conv1x1"); ("cache", "0"); ("fault_backend", "einsum");
                      ("fault_rate", "1"); ("fault_seed", "3") ]
                  "d1" P.Eval)));
      let served =
        match Validate.Corpus.load_result ~path:(Option.get cfg.Server.corpus_path) with
        | Ok entries -> List.map Validate.Corpus.ident entries
        | Error e -> Alcotest.failf "corpus: %s" (Validate.Corpus.string_of_error e)
      in
      let corpus = Validate.Corpus.in_memory () in
      let valuation = Syno.Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:8 ~k:3 ~g:2 ~s:2 () in
      let fault = Validate.Differential.fault ~seed:3 ~rate:1.0 Validate.Differential.Einsum in
      let gate =
        Validate.Admit.create ~corpus ~static:[ valuation ]
          ~differential:(Validate.Differential.config ~fault ())
          ~check_valuations:[ valuation ] ()
      in
      (match Validate.Admit.gate gate Syno.Zoo.conv1x1.Syno.Zoo.operator with
      | Error (Robust.Guard.Backend_mismatch _) -> ()
      | Error k -> Alcotest.failf "in-process gate: %s" (Robust.Guard.kind_label k)
      | Ok () -> Alcotest.fail "in-process gate admitted the poisoned operator");
      Alcotest.(check (list string)) "same corpus identity"
        (List.map Validate.Corpus.ident (Validate.Corpus.entries corpus))
        served)

(* A damaged corpus is quarantined like a damaged cache, and said so on
   stderr in the same words. *)
let test_daemon_reports_corpus_quarantine () =
  with_temp_dir (fun dir ->
      let cfg = { (daemon_config dir) with Server.cache_path = None } in
      let corpus_path = Option.get cfg.Server.corpus_path in
      let oc = open_out corpus_path in
      output_string oc "syno-corpus v1\nentries: 3\ntruncated";
      close_out oc;
      let err_path = Filename.concat dir "stderr" in
      let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      let saved = Unix.dup Unix.stderr in
      Unix.dup2 err_fd Unix.stderr;
      Fun.protect
        ~finally:(fun () ->
          Unix.dup2 saved Unix.stderr;
          Unix.close saved;
          Unix.close err_fd)
        (fun () ->
          with_daemon cfg (fun conn ->
              Alcotest.(check (option string)) "starts empty" (Some "0")
                (ok_param (call conn "q1" P.Status) "corpus_size")));
      let ic = open_in_bin err_path in
      let err = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "quarantine file exists" true
        (Sys.file_exists (corpus_path ^ ".corrupt"));
      Alcotest.(check bool)
        (Printf.sprintf "stderr reports the quarantine: %S" err)
        true
        (Astring.String.is_infix
           ~affix:
             (Printf.sprintf "syno serve: damaged corpus %s quarantined to %s.corrupt ("
                corpus_path corpus_path)
           err))

(* The cold checksum's wire contract: the sum of the reference forward
   pass on the [derive_seed ~seed:0 signature] draw, weights first. *)
let reference_checksum name valuation =
  let op = (List.find (fun e -> e.Syno.Zoo.name = name) Syno.Zoo.all).Syno.Zoo.operator in
  let compiled = Lower.Reference.compile op valuation in
  let seed = Validate.Differential.derive_seed ~seed:0 (Pgraph.Graph.operator_signature op) in
  let rng = Nd.Rng.create ~seed in
  let weights = Lower.Reference.init_weights compiled rng in
  let input =
    Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
  in
  Nd.Tensor.sum (Lower.Reference.forward compiled ~input ~weights)

(* Catalog operators at two or more valuations each, as
   (name, c_in, c_out, hw, k); n, g and s keep the daemon's defaults. *)
let checksum_cases =
  [
    ("conv2d", 8, 8, 8, 3);
    ("conv2d", 4, 8, 5, 1);
    ("operator1", 8, 4, 6, 3);
    ("operator1", 8, 8, 8, 3);
    ("conv1x1", 8, 8, 5, 3);
  ]

let checksum_of resp =
  match ok_param resp "checksum" with
  | Some c -> float_of_string c
  | None -> Alcotest.fail "response without checksum"

let test_daemon_checksum_contract () =
  with_temp_dir (fun dir ->
      with_daemon (daemon_config dir) (fun conn ->
          List.iter
            (fun (name, c_in, c_out, hw, k) ->
              let params =
                [ ("op", name); ("cache", "0"); ("c_in", string_of_int c_in);
                  ("c_out", string_of_int c_out); ("hw", string_of_int hw);
                  ("k", string_of_int k) ]
              in
              let valuation =
                Syno.Zoo.Vars.conv_valuation ~n:1 ~c_in ~c_out ~hw ~k ~g:2 ~s:2 ()
              in
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s c_in=%d c_out=%d hw=%d k=%d checksum" name c_in c_out hw k)
                (reference_checksum name valuation)
                (checksum_of (call conn ~params "c" P.Eval)))
            checksum_cases))

(* A snapshot as written by a daemon before the differential check
   became the only cold pipeline: four cold evals of conv2d, operator1,
   conv1x1 and conv2d again at another shape.  It still loads, its
   entries answer as cache hits with their stored checksums, and a cold
   re-evaluation of each key answers the bit-identical checksum. *)
let legacy_snapshot =
  {|syno-serve-cache v1
entries: 4
entry: key out[i0:N,%20i1:C_out,%20i2:H,%20i3:W]%20(+)=%20in[i0,%20r4,%20((i2%20+%20r5)%20-%20(k%20/%202)),%20((i3%20+%20r6)%20-%20(k%20/%202))]%20*%20w[r4:C_in,%20r5:k,%20r6:k,%20i1:C_out]@n1.ci8.co8.hw8.k3.g2.s2 verdict padded flops 73728 params 576 elements 512 checksum -0x1.04bdfa387affap+3 cold 0x1.2e5d8p-5 spec 0x1.a1acp-8
entry: key out[i0:N,%20i1:C_out,%20i2:H,%20i3:W]%20(+)=%20in[i0,%20(r6%20+%20C_in*g^-1*r5),%20((i2%20+%20r7)%20-%20(k%20/%202)),%20((i3%20+%20r8)%20-%20(k%20/%202))]%20*%20w[r4:C_out*g^-1*s^-1,%20r5:g,%20r6:C_in*g^-1,%20r8:k]%20*%20w[r7:k,%20i1:C_out,%20r4:C_out*g^-1*s^-1,%20r5:g,%20r8:k]@n1.ci8.co4.hw6.k3.g2.s2 verdict padded flops 20736 params 96 elements 144 checksum 0x1.4d38bb5681de9p+3 cold 0x1.0518p-7 spec 0x1.69cp-11
entry: key out[i0:N,%20i1:C_out,%20i2:H,%20i3:W]%20(+)=%20in[i0,%20r4,%20i2,%20i3]%20*%20w[r4:C_in,%20i1:C_out]@n1.ci8.co8.hw5.k3.g2.s2 verdict proved flops 3200 params 64 elements 200 checksum 0x1.e7aa2f66246f1p+2 cold 0x1.302p-11 spec 0x1.6p-16
entry: key out[i0:N,%20i1:C_out,%20i2:H,%20i3:W]%20(+)=%20in[i0,%20r4,%20((i2%20+%20r5)%20-%20(k%20/%202)),%20((i3%20+%20r6)%20-%20(k%20/%202))]%20*%20w[r4:C_in,%20r5:k,%20r6:k,%20i1:C_out]@n1.ci4.co8.hw5.k1.g2.s2 verdict proved flops 1600 params 32 elements 200 checksum -0x1.c09542342e2ap+3 cold 0x1.124p-10 spec 0x1.8f8p-12
|}

let legacy_requests =
  [
    ([ ("op", "conv2d") ], -0x1.04bdfa387affap+3);
    ([ ("op", "operator1"); ("c_out", "4"); ("hw", "6") ], 0x1.4d38bb5681de9p+3);
    ([ ("op", "conv1x1"); ("hw", "5") ], 0x1.e7aa2f66246f1p+2);
    ([ ("op", "conv2d"); ("c_in", "4"); ("hw", "5"); ("k", "1") ], -0x1.c09542342e2ap+3);
  ]

let test_daemon_legacy_snapshot () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config dir in
      let oc = open_out (Option.get cfg.Server.cache_path) in
      output_string oc legacy_snapshot;
      close_out oc;
      with_daemon cfg (fun conn ->
          Alcotest.(check (option string)) "snapshot loads" (Some "4")
            (ok_param (call conn "l0" P.Status) "cache_loaded");
          List.iter
            (fun (params, checksum) ->
              let warm = call conn ~params "l1" P.Eval in
              Alcotest.(check (option string)) "answered from the snapshot" (Some "1")
                (ok_param warm "cached");
              Alcotest.(check (float 0.0)) "stored checksum" checksum (checksum_of warm);
              let cold = call conn ~params:(("cache", "0") :: params) "l2" P.Eval in
              Alcotest.(check (option string)) "re-evaluated" (Some "0")
                (ok_param cold "cached");
              Alcotest.(check (float 0.0)) "cold checksum bit-identical" checksum
                (checksum_of cold))
            legacy_requests))

let test_daemon_warm_restart () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config dir in
      with_daemon cfg (fun conn ->
          let cold = call conn ~params:[ ("op", "conv1x1") ] "w1" P.Eval in
          Alcotest.(check (option string)) "first life: cold" (Some "0")
            (ok_param cold "cached"));
      (* Second life, same cache file: the first request is already
         warm. *)
      with_daemon cfg (fun conn ->
          let st = call conn "w2" P.Status in
          (match ok_param st "cache_loaded" with
          | Some n -> Alcotest.(check bool) "snapshot loaded" true (int_of_string n >= 1)
          | None -> Alcotest.fail "status missing cache_loaded");
          let warm = call conn ~params:[ ("op", "conv1x1") ] "w3" P.Eval in
          Alcotest.(check (option string)) "second life: warm" (Some "1")
            (ok_param warm "cached")))

let test_daemon_external_cancel_drains () =
  with_temp_dir (fun dir ->
      let cfg = { (daemon_config dir) with Server.cache_path = None; corpus_path = None } in
      let cancel = Robust.Cancel.create () in
      let d = Domain.spawn (fun () -> Server.run ~signals:false ~cancel cfg) in
      (match Client.connect ~timeout:10.0 cfg.Server.socket_path with
      | Ok conn ->
          (match call conn "c1" P.Ping with
          | P.Resp_ok _ -> ()
          | P.Resp_error _ -> Alcotest.fail "ping");
          Robust.Cancel.cancel ~reason:"test shutdown" cancel;
          Client.close conn
      | Error e ->
          ignore (Domain.join d);
          Alcotest.failf "connect: %s" e);
      Alcotest.(check int) "external cancel drains to 0" 0 (Domain.join d))

(* Raw socket ends for frames the client library never sends: a line
   written in pieces, and a line that never ends. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_send fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* Everything [fd] delivers until [settle] seconds after the first
   newline, or until [timeout] seconds pass without one. *)
let raw_read fd ~timeout ~settle =
  let buf = Buffer.create 64 and chunk = Bytes.create 4096 in
  let has_line () = String.contains (Buffer.contents buf) '\n' in
  let rec go deadline =
    let remaining = deadline -. Unix.gettimeofday () in
    match if remaining > 0.0 then Unix.select [ fd ] [] [] remaining else ([], [], []) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            let had_line = has_line () in
            Buffer.add_subbytes buf chunk 0 n;
            go (if has_line () && not had_line then Unix.gettimeofday () +. settle else deadline))
  in
  go (Unix.gettimeofday () +. timeout);
  Buffer.contents buf

(* Frames split across writes: a request written in pieces, with pauses,
   gets exactly one answer; a connection that sends half a line and
   stops does not hold up another connection's ping, nor the drain. *)
let test_daemon_split_frames () =
  with_temp_dir (fun dir ->
      let cfg = { (daemon_config dir) with Server.cache_path = None; corpus_path = None } in
      let raw = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !raw)
        (fun () ->
          with_daemon cfg (fun conn ->
              let split = raw_connect cfg.Server.socket_path in
              let stalled = raw_connect cfg.Server.socket_path in
              raw := [ split; stalled ];
              raw_send stalled "x1 pi";
              List.iter
                (fun piece ->
                  raw_send split piece;
                  Unix.sleepf 0.05)
                [ "s1 st"; "a"; "tus"; " note=a%2"; "0b"; "\n" ];
              let answers =
                String.split_on_char '\n' (raw_read split ~timeout:10.0 ~settle:0.3)
                |> List.filter (fun l -> l <> "")
              in
              (match answers with
              | [ line ] -> (
                  match P.parse_response line with
                  | Ok ("s1", P.Resp_ok _) -> ()
                  | _ -> Alcotest.failf "split request answered %S" line)
              | lines ->
                  Alcotest.failf "split request: %d answers (%s)" (List.length lines)
                    (String.concat " | " lines));
              let t0 = Unix.gettimeofday () in
              let ping = { P.rq_id = "p1"; rq_verb = P.Ping; rq_params = [] } in
              (match Client.call ~timeout:5.0 conn ping with
              | Ok (P.Resp_ok _) -> ()
              | Ok (P.Resp_error { err_kind; _ }) -> Alcotest.failf "ping: %s" err_kind
              | Error e -> Alcotest.failf "ping beside a stalled line: %s" e);
              let waited = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool)
                (Printf.sprintf "ping beside a stalled line answered in %.3f s (< 1 s)" waited)
                true (waited < 1.0))))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_protocol_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_protocol_response_roundtrip;
          Alcotest.test_case "junk rejected" `Quick test_protocol_rejects_junk;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_request_roundtrip; prop_response_roundtrip; prop_parsers_total; prop_line_cap ]
        @ Alcotest.test_case "encode every byte" `Quick test_encode_every_byte
          :: List.map QCheck_alcotest.to_alcotest [ prop_encode_oracle; prop_encode_decode ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "persistence round-trip" `Quick test_cache_persistence_roundtrip;
          Alcotest.test_case "spec seconds compat" `Quick test_cache_spec_seconds_compat;
          Alcotest.test_case "garbage quarantined" `Quick test_cache_quarantines_garbage;
          Alcotest.test_case "truncation detected" `Quick test_cache_detects_truncation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "sheds on depth and bytes" `Quick
            test_admission_sheds_on_depth_and_bytes;
          Alcotest.test_case "close drains, discard drops" `Quick test_admission_close_drains;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "eval, cache, typed errors" `Quick
            test_daemon_eval_cache_and_errors;
          Alcotest.test_case "poison containment + replay" `Quick
            test_daemon_poison_and_replay;
          Alcotest.test_case "served kernel cross-checked" `Quick
            test_daemon_specialize_cross_checked;
          Alcotest.test_case "not-instantiable valuation answered" `Quick
            test_daemon_not_instantiable;
          Alcotest.test_case "distills the entry the search gate does" `Quick
            test_daemon_distills_like_search;
          Alcotest.test_case "damaged corpus quarantine reported" `Quick
            test_daemon_reports_corpus_quarantine;
          Alcotest.test_case "cold checksum wire contract" `Quick
            test_daemon_checksum_contract;
          Alcotest.test_case "older snapshot answers the same checksum" `Quick
            test_daemon_legacy_snapshot;
          Alcotest.test_case "warm restart from snapshot" `Quick test_daemon_warm_restart;
          Alcotest.test_case "split frames" `Quick test_daemon_split_frames;
          Alcotest.test_case "external cancel drains" `Quick
            test_daemon_external_cancel_drains;
        ] );
    ]

(* Tests for the domain pool and the parallel einsum hot path. *)

module Pool = Par.Pool
module Rng = Nd.Rng
module Tensor = Nd.Tensor
module Einsum = Nd.Einsum

let with_pools f =
  Pool.with_pool ~domains:1 (fun p1 -> Pool.with_pool ~domains:4 (fun p4 -> f p1 p4))

let test_parallel_for_matches_sequential () =
  with_pools (fun p1 p4 ->
      let n = 10_000 in
      let fill pool =
        let out = Array.make n 0 in
        Pool.parallel_for pool ~n (fun lo hi ->
            for i = lo to hi - 1 do
              out.(i) <- (i * i) + 7
            done);
        out
      in
      Alcotest.(check bool) "1-domain = 4-domain" true (fill p1 = fill p4);
      Alcotest.(check int) "covers all" ((9999 * 9999) + 7) (fill p4).(n - 1))

let test_parallel_for_edge_cases () =
  with_pools (fun _ p4 ->
      let hits = ref [] in
      Pool.parallel_for p4 ~n:0 (fun lo hi -> hits := (lo, hi) :: !hits);
      Alcotest.(check int) "n=0 never calls body" 0 (List.length !hits);
      let out = Array.make 1 0 in
      Pool.parallel_for p4 ~n:1 (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- 42
          done);
      Alcotest.(check int) "n=1 runs" 42 out.(0);
      (* more chunks than elements *)
      let out = Array.make 3 0 in
      Pool.parallel_for p4 ~n:3 ~chunks:64 (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- i + 1
          done);
      Alcotest.(check (array int)) "chunks capped at n" [| 1; 2; 3 |] out)

let test_map_preserves_order () =
  with_pools (fun p1 p4 ->
      let arr = Array.init 37 (fun i -> i) in
      let seq = Array.map (fun i -> i * 3) arr in
      Alcotest.(check (array int)) "1-domain map" seq (Pool.map p1 (fun i -> i * 3) arr);
      Alcotest.(check (array int)) "4-domain map" seq (Pool.map p4 (fun i -> i * 3) arr);
      Alcotest.(check (array int)) "empty" [||] (Pool.map p4 (fun i -> i * 3) [||]))

let test_exception_propagates () =
  with_pools (fun _ p4 ->
      match
        Pool.parallel_for p4 ~n:1000 (fun lo _ -> if lo > 0 then failwith "boom")
      with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg)

let test_pool_usable_after_raise () =
  with_pools (fun _ p4 ->
      (* A raising body must not wedge the pool: subsequent calls on the
         same pool run normally and produce correct results. *)
      for round = 1 to 3 do
        (match Pool.parallel_for p4 ~n:1000 (fun _ _ -> failwith "kaboom") with
        | () -> Alcotest.fail "expected exception"
        | exception Failure msg -> Alcotest.(check string) "payload" "kaboom" msg);
        let out = Array.make 1000 0 in
        Pool.parallel_for p4 ~n:1000 (fun lo hi ->
            for i = lo to hi - 1 do
              out.(i) <- i + round
            done);
        Alcotest.(check int) "first" round out.(0);
        Alcotest.(check int) "last" (999 + round) out.(999)
      done;
      (* Same for map, including the raising case. *)
      (match Pool.map p4 (fun i -> if i = 2 then failwith "m" else i) [| 0; 1; 2; 3 |] with
      | (_ : int array) -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "map payload" "m" msg);
      let sq = Pool.map p4 (fun i -> i * i) [| 0; 1; 2; 3; 4 |] in
      Alcotest.(check (array int)) "map after raise" [| 0; 1; 4; 9; 16 |] sq)

let test_pool_cancellation () =
  with_pools (fun _ p4 ->
      (* A token tripped mid-loop skips the unclaimed chunks, drains
         in-flight ones, and raises Cancelled in the caller — mirroring
         the error path's discipline. *)
      let n = 1000 in
      let executed = Atomic.make 0 in
      let tok = Robust.Cancel.create () in
      (match
         Pool.parallel_for p4 ~cancel:tok ~n ~chunks:100 (fun lo hi ->
             (* Trip from inside the body: everything claimed before the
                trip still completes (the drain), later chunks don't. *)
             Robust.Cancel.cancel ~reason:"mid-loop" tok;
             Atomic.set executed (Atomic.get executed + (hi - lo)))
       with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Robust.Cancel.Cancelled (Robust.Cancel.Cancelled_by "mid-loop") -> ()
      | exception Robust.Cancel.Cancelled _ -> Alcotest.fail "wrong reason");
      let ran = Atomic.get executed in
      Alcotest.(check bool)
        (Printf.sprintf "unclaimed chunks skipped (%d < %d elements)" ran n)
        true (ran < n);
      Alcotest.(check bool) "in-flight chunks drained" true (ran > 0);
      (* The pool comes out reusable, exactly like after a raise. *)
      let out = Array.make n 0 in
      Pool.parallel_for p4 ~n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- i
          done);
      Alcotest.(check int) "reusable after cancellation" (n - 1) out.(n - 1);
      (* An untripped token is invisible. *)
      let fresh = Robust.Cancel.create () in
      let sum = Atomic.make 0 in
      Pool.parallel_for p4 ~cancel:fresh ~n (fun lo hi ->
          let s = ref 0 in
          for i = lo to hi - 1 do
            s := !s + i
          done;
          let rec add () =
            let cur = Atomic.get sum in
            if not (Atomic.compare_and_set sum cur (cur + !s)) then add ()
          in
          add ());
      Alcotest.(check int) "untripped token: full result" (n * (n - 1) / 2) (Atomic.get sum);
      (* A pre-tripped token raises before any work, including on the
         sequential fallback paths. *)
      let dead = Robust.Cancel.create () in
      Robust.Cancel.cancel dead;
      let calls = Atomic.make 0 in
      (match Pool.parallel_for p4 ~cancel:dead ~n (fun _ _ -> Atomic.incr calls) with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Robust.Cancel.Cancelled _ -> ());
      Alcotest.(check int) "no chunk ran" 0 (Atomic.get calls);
      (match Pool.map p4 ~cancel:dead (fun i -> i) [| 1; 2; 3 |] with
      | (_ : int array) -> Alcotest.fail "expected Cancelled from map"
      | exception Robust.Cancel.Cancelled _ -> ()))

let test_nested_calls_do_not_deadlock () =
  with_pools (fun _ p4 ->
      (* parallel_for from inside a worker of the same pool must fall
         back to a sequential loop instead of deadlocking. *)
      let outer = Array.make 8 0 in
      Pool.parallel_for p4 ~n:8 ~chunks:8 (fun lo hi ->
          for i = lo to hi - 1 do
            let acc = ref 0 in
            Pool.parallel_for p4 ~n:100 (fun lo' hi' ->
                for j = lo' to hi' - 1 do
                  acc := !acc + j
                done);
            outer.(i) <- !acc
          done);
      Alcotest.(check (array int)) "inner sums" (Array.make 8 4950) outer)

let test_num_domains_positive () =
  Alcotest.(check bool) "detection >= 1" true (Pool.num_domains () >= 1);
  Pool.with_pool ~domains:0 (fun p -> Alcotest.(check int) "clamped to 1" 1 (Pool.size p))

let test_parse_domains () =
  (match Pool.parse_domains "4" with
  | Ok n -> Alcotest.(check int) "positive integer" 4 n
  | Error e -> Alcotest.fail ("unexpected error: " ^ e));
  (match Pool.parse_domains "1" with
  | Ok n -> Alcotest.(check int) "one" 1 n
  | Error e -> Alcotest.fail ("unexpected error: " ^ e));
  let expect_error label s =
    match Pool.parse_domains s with
    | Ok n -> Alcotest.fail (Printf.sprintf "%s: accepted %S as %d" label s n)
    | Error msg -> Alcotest.(check bool) (label ^ " has message") true (msg <> "")
  in
  expect_error "zero" "0";
  expect_error "negative" "-3";
  expect_error "garbage" "abc";
  expect_error "empty" ""

let test_num_domains_env () =
  (* Both branches of the SYNO_DOMAINS handling: a valid setting is
     obeyed, an invalid one falls back to auto-detection (with a
     one-line stderr warning) instead of crashing or silently parsing
     as something else. *)
  let original = Sys.getenv_opt "SYNO_DOMAINS" in
  let restore () =
    Unix.putenv "SYNO_DOMAINS" (match original with Some v -> v | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "SYNO_DOMAINS" "3";
      Alcotest.(check int) "valid setting obeyed" 3 (Pool.num_domains ());
      Unix.putenv "SYNO_DOMAINS" "abc";
      let fallback = Pool.num_domains () in
      Alcotest.(check bool) "invalid setting falls back" true (fallback >= 1);
      Unix.putenv "SYNO_DOMAINS" "0";
      Alcotest.(check int) "non-positive falls back the same way" fallback
        (Pool.num_domains ()))

let test_contended_fallback_polls_cancellation () =
  (* Regression: when another domain already drives a loop on the pool,
     the submitter runs its loop sequentially — and that fallback must
     poll cancellation periodically, not just once up front.  A fake
     clock that advances one tick per poll proves the polls happen:
     the deadline trips mid-loop after a bounded number of slices. *)
  Pool.with_pool ~domains:2 (fun pool ->
      let gate = Atomic.make false in
      let holding = Atomic.make false in
      let holder =
        Domain.spawn (fun () ->
            Pool.parallel_for pool ~n:2 ~chunks:2 (fun lo _ ->
                if lo = 0 then begin
                  Atomic.set holding true;
                  while not (Atomic.get gate) do
                    Domain.cpu_relax ()
                  done
                end))
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate true;
          Domain.join holder)
        (fun () ->
          while not (Atomic.get holding) do
            Domain.cpu_relax ()
          done;
          (* the pool is now busy: this submission takes the contended
             sequential fallback *)
          let polls = Atomic.make 0 in
          let clock () = float_of_int (Atomic.fetch_and_add polls 1) in
          let tok = Robust.Cancel.of_deadline ~clock 5.0 in
          let executed = Atomic.make 0 in
          (match
             Pool.parallel_for pool ~cancel:tok ~n:1000 ~chunks:100 (fun lo hi ->
                 Atomic.set executed (Atomic.get executed + (hi - lo)))
           with
          | () -> Alcotest.fail "expected Cancelled from the contended fallback"
          | exception Robust.Cancel.Cancelled _ -> ());
          let ran = Atomic.get executed in
          Alcotest.(check bool)
            (Printf.sprintf "some slices ran before the trip (%d)" ran)
            true (ran > 0);
          Alcotest.(check bool)
            (Printf.sprintf "tripped mid-loop, not at the end (%d < 1000)" ran)
            true (ran < 1000)))

let test_skewed_workload () =
  (* One element 100x heavier than the rest: while one participant
     holds it, the others must keep claiming from the cursor, cover
     every index and produce the sequential result. *)
  with_pools (fun p1 p4 ->
      let n = 512 in
      let weight i = if i = 0 then 40_000 else 400 in
      let fill pool =
        let out = Array.make n 0 in
        Pool.parallel_for pool ~n (fun lo hi ->
            for i = lo to hi - 1 do
              let acc = ref 0 in
              for j = 1 to weight i do
                acc := (!acc + j) land 0xFFFFFF
              done;
              out.(i) <- !acc
            done);
        out
      in
      Alcotest.(check (array int)) "skewed 1-domain = 4-domain" (fill p1) (fill p4))

let test_nested_distinct_pools () =
  (* A loop on one pool whose body drives a loop on a different pool —
     the MCTS-worker-calls-einsum shape.  Must neither deadlock nor
     corrupt either loop's results. *)
  Pool.with_pool ~domains:3 (fun outer ->
      Pool.with_pool ~domains:2 (fun inner ->
          let results = Array.make 6 0 in
          Pool.parallel_for outer ~n:6 ~chunks:6 (fun lo hi ->
              for i = lo to hi - 1 do
                let acc = Atomic.make 0 in
                Pool.parallel_for inner ~n:200 (fun lo' hi' ->
                    let s = ref 0 in
                    for j = lo' to hi' - 1 do
                      s := !s + j
                    done;
                    let rec add () =
                      let cur = Atomic.get acc in
                      if not (Atomic.compare_and_set acc cur (cur + !s)) then add ()
                    in
                    add ());
                results.(i) <- Atomic.get acc
              done);
          Alcotest.(check (array int)) "inner sums under outer loop"
            (Array.make 6 (200 * 199 / 2))
            results))

let test_steal_under_cancellation () =
  (* Trip the token while distributed ranges are still unclaimed: the
     later claims must observe the trip and discard, never execute,
     their ranges — and the drain still terminates. *)
  with_pools (fun _ p4 ->
      for round = 1 to 5 do
        let tok = Robust.Cancel.create () in
        let executed = Atomic.make 0 in
        (match
           Pool.parallel_for p4 ~cancel:tok ~n:1024 ~chunks:64 (fun lo hi ->
               if lo = 0 then Robust.Cancel.cancel ~reason:"steal-test" tok
               else
                 for _ = 1 to 50 do
                   Domain.cpu_relax ()
                 done;
               Atomic.set executed (Atomic.get executed + (hi - lo)))
         with
        | () -> Alcotest.fail "expected Cancelled"
        | exception Robust.Cancel.Cancelled _ -> ());
        let ran = Atomic.get executed in
        Alcotest.(check bool)
          (Printf.sprintf "round %d: unclaimed ranges discarded (%d < 1024)" round ran)
          true
          (ran < 1024);
        (* the pool survives every round *)
        let out = Array.make 64 0 in
        Pool.parallel_for p4 ~n:64 (fun lo hi ->
            for i = lo to hi - 1 do
              out.(i) <- i
            done);
        Alcotest.(check int) "reusable" 63 out.(63)
      done)

let test_map_large_cheap () =
  (* A large array of cheap elements, one claim each: order preserved,
     and the result matches Array.map exactly. *)
  with_pools (fun p1 p4 ->
      let arr = Array.init 50_000 (fun i -> i) in
      let expect = Array.map (fun i -> (i * 7) + 1) arr in
      Alcotest.(check (array int)) "1-domain large map" expect
        (Pool.map p1 (fun i -> (i * 7) + 1) arr);
      Alcotest.(check (array int)) "4-domain large map" expect
        (Pool.map p4 (fun i -> (i * 7) + 1) arr);
      (* around twice the pool size *)
      for n = 7 to 10 do
        let arr = Array.init n (fun i -> i) in
        Alcotest.(check (array int))
          (Printf.sprintf "boundary n=%d" n)
          (Array.map (fun i -> i - 3) arr)
          (Pool.map p4 (fun i -> i - 3) arr)
      done)

let test_set_default_domains_racing () =
  (* Retiring the default pool while another domain still drives a loop
     on it must let that loop finish normally; the old pool is shut
     down when it drains, and later submissions to it run sequentially
     but correctly. *)
  let old = Pool.get_default () in
  let n = 100_000 in
  let out = Array.make n 0 in
  let started = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        Pool.parallel_for old ~n ~chunks:256 (fun lo hi ->
            Atomic.set started true;
            for i = lo to hi - 1 do
              out.(i) <- i + 1
            done))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Pool.set_default_domains 2;
  let fresh = Pool.get_default () in
  Domain.join runner;
  Alcotest.(check bool) "a new default pool exists" true (fresh != old);
  Alcotest.(check int) "new default size" 2 (Pool.size fresh);
  let ok = ref true in
  for i = 0 to n - 1 do
    if out.(i) <> i + 1 then ok := false
  done;
  Alcotest.(check bool) "racing loop completed correctly" true !ok;
  (* the retired pool still serves loops (sequentially) *)
  let out2 = Array.make 128 0 in
  Pool.parallel_for old ~n:128 (fun lo hi ->
      for i = lo to hi - 1 do
        out2.(i) <- i * 2
      done);
  Alcotest.(check int) "retired pool still correct" 254 out2.(127);
  (* and the new default is fully functional *)
  let out3 = Array.make 128 0 in
  Pool.parallel_for fresh ~n:128 (fun lo hi ->
      for i = lo to hi - 1 do
        out3.(i) <- i + 10
      done);
  Alcotest.(check int) "new default works" 137 out3.(127)

(* --- Exactly once ------------------------------------------------------------ *)

(* Every test above writes an idempotent value per index, so an index
   that ran twice would pass them all.  Here the body bumps a per-index
   counter instead.  A clean draw must leave every count at exactly 1.
   A faulted draw (a raise, or a trip of the loop's token, at one
   index) must leave every count at most 1, the failure must reach the
   caller, and the pool must come out reusable.  One exception to the
   trip rule: a sequential fallback polls the token only between
   slices, so a trip in its last slice lets the loop finish, and then
   every index has run exactly once. *)

type fault = Clean | Raise_at of int | Trip_at of int

exception Planted

(* One pool at a time, reused across draws of the same size, so no
   more than 4 domains ever exist at once. *)
let cached_pool = ref None

let pool_of_size domains =
  match !cached_pool with
  | Some p when Pool.size p = domains -> p
  | prev ->
      Option.iter Pool.shutdown prev;
      let p = Pool.create ~domains () in
      cached_pool := Some p;
      p

let exactly_once_draw =
  let open QCheck.Gen in
  let* n = int_range 0 3000 in
  let* domains = int_range 1 4 in
  let* chunks = opt (int_range 1 4000) in
  let* spin = int_range 0 64 in
  let* fault =
    if n = 0 then return Clean
    else
      frequency
        [
          (2, return Clean);
          (1, map (fun k -> Raise_at k) (int_bound (n - 1)));
          (1, map (fun k -> Trip_at k) (int_bound (n - 1)));
        ]
  in
  return (n, domains, chunks, spin, fault)

let print_draw (n, domains, chunks, spin, fault) =
  Printf.sprintf "n=%d domains=%d chunks=%s spin=%d fault=%s" n domains
    (match chunks with Some c -> string_of_int c | None -> "tuned")
    spin
    (match fault with
    | Clean -> "none"
    | Raise_at k -> Printf.sprintf "raise@%d" k
    | Trip_at k -> Printf.sprintf "trip@%d" k)

(* Run one loop over [0, n) and return the per-index counts and how
   the loop ended. *)
let count_runs pool ?cancel ?chunks ~n ~spin on_index =
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let outcome =
    match
      Pool.parallel_for pool ?cancel ~n ?chunks (fun lo hi ->
          for i = lo to hi - 1 do
            Atomic.incr counts.(i);
            for _ = 1 to spin do
              Domain.cpu_relax ()
            done;
            on_index i
          done)
    with
    | () -> Ok ()
    | exception e -> Error e
  in
  (Array.map Atomic.get counts, outcome)

let exactly_once =
  QCheck.Test.make ~name:"every index exactly once" ~count:150
    (QCheck.make ~print:print_draw exactly_once_draw)
    (fun (n, domains, chunks, spin, fault) ->
      let pool = pool_of_size domains in
      let all_once counts = Array.for_all (fun c -> c = 1) counts in
      let at_most_once counts = Array.for_all (fun c -> c <= 1) counts in
      let faulted_ok =
        match fault with
        | Clean -> (
            match count_runs pool ?chunks ~n ~spin ignore with
            | counts, Ok () -> all_once counts
            | _, Error e -> QCheck.Test.fail_reportf "clean loop raised %s" (Printexc.to_string e))
        | Raise_at k -> (
            match count_runs pool ?chunks ~n ~spin (fun i -> if i = k then raise Planted) with
            | counts, Error Planted -> at_most_once counts
            | _, Ok () -> QCheck.Test.fail_report "the planted raise never reached the caller"
            | _, Error e -> QCheck.Test.fail_reportf "wrong exception %s" (Printexc.to_string e))
        | Trip_at k -> (
            let tok = Robust.Cancel.create () in
            match
              count_runs pool ~cancel:tok ?chunks ~n ~spin (fun i ->
                  if i = k then Robust.Cancel.cancel ~reason:"planted" tok)
            with
            | counts, Error (Robust.Cancel.Cancelled _) -> at_most_once counts
            | counts, Ok () -> all_once counts
            | _, Error e -> QCheck.Test.fail_reportf "wrong exception %s" (Printexc.to_string e))
      in
      (* the pool is reusable: a clean loop right after still runs every
         index exactly once *)
      faulted_ok
      && match count_runs pool ?chunks ~n ~spin ignore with
         | counts, Ok () -> all_once counts
         | _, Error e ->
             QCheck.Test.fail_reportf "loop after the fault raised %s" (Printexc.to_string e))

let test_exactly_once =
  let name, speed, run = QCheck_alcotest.to_alcotest exactly_once in
  Alcotest.test_case name speed (fun () ->
      Fun.protect run ~finally:(fun () ->
          Option.iter Pool.shutdown !cached_pool;
          cached_pool := None))

(* --- Einsum determinism across pool sizes -------------------------------- *)

(* Bit-identical means exactly equal float arrays, not within-epsilon. *)
let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t)

let einsum_specs =
  [
    ("ik,kj->ij", [ [| 24; 17 |]; [| 17; 31 |] ]);
    ("bik,kj->bij", [ [| 3; 14; 9 |]; [| 9; 21 |] ]);
    ("nchw,dc->ndhw", [ [| 2; 6; 7; 7 |]; [| 5; 6 |] ]);
    ("i,i->", [ [| 257 |]; [| 257 |] ]);
    ("ij->j", [ [| 33; 19 |] ]);
    ("abc,cd,db->a", [ [| 5; 6; 7 |]; [| 7; 8 |]; [| 8; 6 |] ]);
  ]

let test_einsum_bit_identical () =
  (* Across 1/2/4-domain pools AND across repeated runs on the same
     pool: which participant claims which grain varies run to run, the
     results must not. *)
  with_pools (fun p1 p4 ->
      Pool.with_pool ~domains:2 (fun p2 ->
          let rng = Rng.create ~seed:99 in
          List.iter
            (fun (spec, shapes) ->
              (* a batch of random instances per spec *)
              for _ = 1 to 3 do
                let tensors =
                  List.map (fun sh -> Tensor.rand_normal rng ~scale:1.0 sh) shapes
                in
                let a = Einsum.einsum ~pool:p1 spec tensors in
                let b2 = Einsum.einsum ~pool:p2 spec tensors in
                let b = Einsum.einsum ~pool:p4 spec tensors in
                let b' = Einsum.einsum ~pool:p4 spec tensors in
                Alcotest.(check (array int64))
                  (spec ^ " 1 vs 4 domains bit-identical") (bits a) (bits b);
                Alcotest.(check (array int64))
                  (spec ^ " 1 vs 2 domains bit-identical") (bits a) (bits b2);
                Alcotest.(check (array int64))
                  (spec ^ " repeated run bit-identical") (bits b) (bits b');
                Alcotest.(check (array int))
                  (spec ^ " same shape") (Tensor.shape a) (Tensor.shape b)
              done)
            einsum_specs))

(* The par bench's shapes, drawn in this order from seed 2025. *)
let bench_einsum_specs =
  [
    ("matmul-128", "ik,kj->ij", [ [| 128; 128 |]; [| 128; 128 |] ]);
    ("batched-matmul", "bik,kj->bij", [ [| 8; 64; 64 |]; [| 64; 64 |] ]);
    ("pointwise-conv", "nchw,dc->ndhw", [ [| 2; 32; 24; 24 |]; [| 32; 32 |] ]);
  ]

let test_einsum_large_parallel_path () =
  (* Big enough to cross the sequential-work threshold, so the 2- and
     4-domain runs really exercise chunked execution. *)
  with_pools (fun p1 p4 ->
      Pool.with_pool ~domains:2 (fun p2 ->
          let rng = Rng.create ~seed:5 in
          let a = Tensor.rand_normal rng ~scale:1.0 [| 64; 48 |] in
          let b = Tensor.rand_normal rng ~scale:1.0 [| 48; 64 |] in
          let p = Einsum.plan "ik,kj->ij" [ [| 64; 48 |]; [| 48; 64 |] ] in
          let r1 = Einsum.run ~pool:p1 p [ a; b ] in
          let r4 = Einsum.run ~pool:p4 p [ a; b ] in
          Alcotest.(check (array int64)) "matmul bit-identical" (bits r1) (bits r4);
          let rng = Rng.create ~seed:2025 in
          List.iter
            (fun (name, spec, shapes) ->
              let tensors = List.map (fun sh -> Tensor.rand_normal rng ~scale:1.0 sh) shapes in
              let p = Einsum.plan spec shapes in
              let r1 = Einsum.run ~pool:p1 p tensors in
              List.iter
                (fun (domains, pool) ->
                  Alcotest.(check (array int64))
                    (Printf.sprintf "einsum %s bit-identical, 1 vs %d domains" name domains)
                    (bits r1)
                    (bits (Einsum.run ~pool p tensors)))
                [ (2, p2); (4, p4) ])
            bench_einsum_specs))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for = sequential" `Quick
            test_parallel_for_matches_sequential;
          Alcotest.test_case "edge cases" `Quick test_parallel_for_edge_cases;
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "usable after raise" `Quick test_pool_usable_after_raise;
          Alcotest.test_case "cancellation" `Quick test_pool_cancellation;
          Alcotest.test_case "nested calls" `Quick test_nested_calls_do_not_deadlock;
          Alcotest.test_case "num_domains" `Quick test_num_domains_positive;
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
          Alcotest.test_case "SYNO_DOMAINS env" `Quick test_num_domains_env;
          Alcotest.test_case "contended fallback polls cancellation" `Quick
            test_contended_fallback_polls_cancellation;
          Alcotest.test_case "skewed workload" `Quick test_skewed_workload;
          Alcotest.test_case "nested distinct pools" `Quick test_nested_distinct_pools;
          Alcotest.test_case "steal under cancellation" `Quick
            test_steal_under_cancellation;
          Alcotest.test_case "map large cheap f" `Quick test_map_large_cheap;
          Alcotest.test_case "set_default_domains racing" `Quick
            test_set_default_domains_racing;
          test_exactly_once;
        ] );
      ( "einsum",
        [
          Alcotest.test_case "random specs bit-identical" `Quick test_einsum_bit_identical;
          Alcotest.test_case "large parallel path" `Quick test_einsum_large_parallel_path;
        ] );
    ]

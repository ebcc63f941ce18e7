(* Data-parallel pool with granularity auto-tuning.

   One loop runs at a time.  The submitting domain reserves the pool
   ([busy]), probes a prefix of the body to estimate per-element cost,
   and either finishes sequentially (when the measured grain says
   parallelism cannot pay) or distributes the remainder: every
   participant, the caller and the workers alike, claims the next
   grain-sized range from one atomic cursor until the cursor passes
   the end.  Completion is detected by an atomic count of elements
   executed or discarded, so an aborting loop (first body exception,
   or a tripped cancellation token observed at a claim) drains
   in-flight grains, discards the rest quickly, and leaves the pool
   reusable. *)

let parse_domains s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "SYNO_DOMAINS must be >= 1 (got %d)" n)
  | None -> Error (Printf.sprintf "SYNO_DOMAINS must be an integer (got %S)" s)

let warned_invalid_domains = Atomic.make false

let num_domains () =
  match Sys.getenv_opt "SYNO_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match parse_domains s with
      | Ok n -> n
      | Error msg ->
          let fallback = Domain.recommended_domain_count () in
          if not (Atomic.exchange warned_invalid_domains true) then
            Printf.eprintf "syno: warning: %s; falling back to %d domain%s\n%!" msg
              fallback
              (if fallback = 1 then "" else "s");
          fallback)

(* --- Tuning constants ----------------------------------------------------

   The probe runs real work (a prefix of the loop), so its only
   overhead is a few clock reads; it stops as soon as [probe_budget]
   of body time has accumulated, which also caps the damage when the
   very first element is expensive (grain 1, distribute immediately). *)

let probe_budget = 25e-6 (* stop probing after this much body time *)
let grain_target = 30e-6 (* aim each parallel grain at this much work *)
let pay_threshold = 150e-6 (* below this much remaining work, stay sequential *)
let seq_poll_target = 500e-6 (* cancellation poll cadence of sequential slices *)

(* --- Loop state ----------------------------------------------------------- *)

type loop = {
  lp_body : int -> int -> unit;
  lp_grain : int;
  lp_n : int;  (* the loop covers [0, lp_n) *)
  lp_next : int Atomic.t;  (* claim cursor: first index not yet handed out *)
  lp_accounted : int Atomic.t;  (* elements executed or discarded *)
  lp_aborted : bool Atomic.t;
  lp_cancel : Robust.Cancel.t option;
}

type t = {
  size : int;
  hw : int;  (* detected parallelism, for the can-it-pay check *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  mutable current : loop option;  (* what sleeping workers pick up *)
  mutable busy : bool;  (* a submitter holds the pool (probe or loop) *)
  mutable generation : int;
  mutable error : exn option;  (* first body exception of the busy loop *)
  mutable stop : bool;
  mutable retired : bool;  (* shutdown requested; honored once idle *)
  mutable workers : unit Domain.t list;
  mutable worker_ids : Domain.id list;
}

let size t = t.size
let inside_pool t = List.mem (Domain.self ()) t.worker_ids

(* --- Executing one loop ---------------------------------------------------- *)

let account lp len = ignore (Atomic.fetch_and_add lp.lp_accounted len)

(* Polled at every claim. *)
let loop_cancelled lp =
  Atomic.get lp.lp_aborted
  ||
  match lp.lp_cancel with
  | Some c when Robust.Cancel.is_cancelled c ->
      Atomic.set lp.lp_aborted true;
      true
  | Some _ | None -> false

(* Claim grains from the cursor until it passes [lp_n].  A claimed
   grain runs, or, once the loop is aborted, is only accounted: the
   abort drain discards the unclaimed rest one claim at a time. *)
let run_loop t lp =
  let rec go () =
    let lo = Atomic.fetch_and_add lp.lp_next lp.lp_grain in
    if lo < lp.lp_n then begin
      let hi = min lp.lp_n (lo + lp.lp_grain) in
      (if not (loop_cancelled lp) then
         match lp.lp_body lo hi with
         | () -> ()
         | exception e ->
             Mutex.lock t.mutex;
             if t.error = None then t.error <- Some e;
             Mutex.unlock t.mutex;
             Atomic.set lp.lp_aborted true);
      account lp (hi - lo);
      go ()
    end
  in
  go ()

(* --- Workers ---------------------------------------------------------------- *)

let worker_main t () =
  let last_gen = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else if t.generation <> !last_gen then begin
      last_gen := t.generation;
      match t.current with
      | Some lp ->
          Mutex.unlock t.mutex;
          run_loop t lp;
          Mutex.lock t.mutex;
          loop ()
      | None -> loop ()
    end
    else begin
      Condition.wait t.work_ready t.mutex;
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let size = max 1 (match domains with Some d -> d | None -> num_domains ()) in
  let t =
    {
      size;
      hw = num_domains ();
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      current = None;
      busy = false;
      generation = 0;
      error = None;
      stop = false;
      retired = false;
      workers = [];
      worker_ids = [];
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_main t));
  t.worker_ids <- List.map Domain.get_id t.workers;
  t

(* Stop and collect the workers for joining.  Called with [t.mutex] held. *)
let halt_locked t =
  if t.stop then None
  else begin
    t.stop <- true;
    Condition.broadcast t.work_ready;
    let ws = t.workers in
    t.workers <- [];
    t.worker_ids <- [];
    Some ws
  end

let join_opt = function Some ws -> List.iter Domain.join ws | None -> ()

let shutdown t =
  Mutex.lock t.mutex;
  t.retired <- true;
  let to_join = halt_locked t in
  Mutex.unlock t.mutex;
  join_opt to_join

(* Deferred shutdown: stop now when idle, otherwise mark and let the
   submitter holding the pool perform the join on release.  Never
   blocks on in-flight loops. *)
let retire t =
  Mutex.lock t.mutex;
  t.retired <- true;
  let to_join = if t.busy then None else halt_locked t in
  Mutex.unlock t.mutex;
  join_opt to_join

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- Submitting loops -------------------------------------------------------- *)

(* Release the reservation taken by [parallel_for]; releasing a
   retired pool performs the deferred shutdown. *)
let release t =
  Mutex.lock t.mutex;
  t.busy <- false;
  let to_join = if t.retired then halt_locked t else None in
  Mutex.unlock t.mutex;
  join_opt to_join

(* Sequential execution with periodic cancellation polls — used by
   every fallback path (size 1, nested, contended, tuner-declined), so
   preemptive deadlines keep their granularity even when the pool
   cannot parallelize.  The poll after the last slice makes a trip
   inside it raise, as a distributed loop's poll after its drain does. *)
let seq_run ?cancel ~grain body lo n =
  match cancel with
  | None -> if lo < n then body lo n
  | Some c ->
      let i = ref lo in
      while !i < n do
        Robust.Cancel.check c;
        let j = min n (!i + grain) in
        body !i j;
        i := j
      done;
      Robust.Cancel.check c

let fallback_grain ~n chunks =
  match chunks with
  | Some c -> max 1 ((n + c - 1) / max 1 c)
  | None -> max 1 (n / 32)

(* Time a prefix of the body, growing the batch geometrically so cheap
   bodies don't drown in clock reads.  Returns elements done and the
   elapsed body time. *)
let probe body n =
  let t0 = Unix.gettimeofday () in
  let rec go done_ batch =
    let hi = min n (done_ + batch) in
    body done_ hi;
    let elapsed = Unix.gettimeofday () -. t0 in
    if hi >= n || elapsed >= probe_budget then (hi, elapsed)
    else go hi (batch * 4)
  in
  go 0 1

(* Install the loop, claim grains beside the workers, wait for the
   grains still in flight elsewhere, tear down, re-raise. *)
let launch t ?cancel ~start ~n ~grain body =
  let lp =
    {
      lp_body = body;
      lp_grain = grain;
      lp_n = n;
      lp_next = Atomic.make start;
      lp_accounted = Atomic.make start;
      lp_aborted = Atomic.make false;
      lp_cancel = cancel;
    }
  in
  Mutex.lock t.mutex;
  t.current <- Some lp;
  t.error <- None;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  run_loop t lp;
  (* the cursor has passed n; spin briefly, then back off so an
     oversubscribed machine can run whoever still holds a grain *)
  let rec await idle =
    if Atomic.get lp.lp_accounted < n then begin
      if idle > 4 then Unix.sleepf 50e-6 else Domain.cpu_relax ();
      await (idle + 1)
    end
  in
  await 0;
  (* accounted = n: every grain has returned, nothing is in flight *)
  Mutex.lock t.mutex;
  t.current <- None;
  let err = t.error in
  t.error <- None;
  Mutex.unlock t.mutex;
  release t;
  match err with
  | Some e -> raise e
  | None -> ( match cancel with Some c -> Robust.Cancel.check c | None -> ())

let parallel_for t ?cancel ~n ?chunks body =
  if n <= 0 then ()
  else begin
    (* a pre-tripped token raises before any work, on every path *)
    (match cancel with Some c -> Robust.Cancel.check c | None -> ());
    if t.size <= 1 || n = 1 || inside_pool t then
      seq_run ?cancel ~grain:(fallback_grain ~n chunks) body 0 n
    else begin
      Mutex.lock t.mutex;
      if t.busy || t.stop then begin
        (* another domain drives a loop, or the pool is shut down: run
           on the caller — with periodic polls, not one upfront check *)
        Mutex.unlock t.mutex;
        seq_run ?cancel ~grain:(fallback_grain ~n chunks) body 0 n
      end
      else begin
        t.busy <- true;
        Mutex.unlock t.mutex;
        match chunks with
        | Some c ->
            (* explicit chunking is a distribution request: skip the tuner *)
            let c = min n (max 1 c) in
            launch t ?cancel ~start:0 ~n ~grain:(max 1 ((n + c - 1) / c)) body
        | None -> (
            match probe body n with
            | exception e ->
                release t;
                raise e
            | done_, elapsed ->
                if done_ >= n then begin
                  release t;
                  match cancel with Some c -> Robust.Cancel.check c | None -> ()
                end
                else begin
                  let per = Float.max 1e-9 (elapsed /. float_of_int (max 1 done_)) in
                  let remaining = n - done_ in
                  let predicted = float_of_int remaining *. per in
                  if t.hw < 2 || predicted < pay_threshold then begin
                    (* the measured grain says parallelism can't pay *)
                    let grain =
                      max 1 (min remaining (int_of_float (seq_poll_target /. per)))
                    in
                    match seq_run ?cancel ~grain body done_ n with
                    | () -> release t
                    | exception e ->
                        release t;
                        raise e
                  end
                  else begin
                    (* enough grains to balance, each worth ~grain_target *)
                    let ideal = int_of_float (grain_target /. per) in
                    let cap = max 1 (remaining / (2 * t.size)) in
                    launch t ?cancel ~start:done_ ~n ~grain:(max 1 (min ideal cap)) body
                  end
                end)
      end
    end
  end

(* One element per claim: the only library caller maps a few heavy
   jobs (root-parallel search trees), which this balances best. *)
let map t ?cancel f arr =
  let n = Array.length arr in
  let out = Array.make n None in
  parallel_for t ?cancel ~n ~chunks:n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- Some (f arr.(i))
      done);
  Array.map Option.get out

(* --- Default pool -------------------------------------------------------- *)

let default_mutex = Mutex.create ()
let default_pool = ref None
let default_size = ref None

let get_default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ?domains:!default_size () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  pool

let set_default_domains n =
  Mutex.lock default_mutex;
  let old = !default_pool in
  default_size := Some (max 1 n);
  default_pool := None;
  Mutex.unlock default_mutex;
  (* Retire, don't shutdown: another thread may still be mid-loop on
     the old pool; the last loop out performs the deferred join. *)
  match old with Some p -> retire p | None -> ()

type kind =
  | Eval_error of string
  | Non_finite
  | Timeout
  | Injected
  | Over_budget of string
  | Backend_mismatch of string
  | Diverged of string
  | Static_violation of string
  | Counterexample of string

let kind_label = function
  | Eval_error _ -> "eval_error"
  | Non_finite -> "non_finite"
  | Timeout -> "timeout"
  | Injected -> "injected"
  | Over_budget _ -> "over_budget"
  | Backend_mismatch _ -> "backend_mismatch"
  | Diverged _ -> "diverged"
  | Static_violation _ -> "static_violation"
  | Counterexample _ -> "counterexample"

let kind_detail = function
  | Eval_error m | Over_budget m | Backend_mismatch m | Diverged m | Static_violation m
  | Counterexample m ->
      m
  | Non_finite -> "non-finite result"
  | Timeout -> "evaluation budget exceeded"
  | Injected -> "injected fault"

(* Failures that are a deterministic function of the candidate itself:
   a candidate over its resource budget, a miscompiling backend, a
   diverging training run, or a statically disproven bounds obligation
   fails identically on every attempt, so retrying only burns the
   evaluation budget. *)
let permanent = function
  | Over_budget _ | Backend_mismatch _ | Diverged _ | Static_violation _ | Counterexample _ ->
      true
  | Eval_error _ | Non_finite | Timeout | Injected -> false

exception Reject of kind

type policy = {
  retries : int;
  backoff : float;
  backoff_factor : float;
  max_backoff : float;
  jitter : float;
  jitter_seed : int;
  timeout : float option;
}

let default_policy =
  {
    retries = 2;
    backoff = 0.0;
    backoff_factor = 2.0;
    max_backoff = 1.0;
    jitter = 0.0;
    jitter_seed = 0;
    timeout = None;
  }

let policy ?(retries = default_policy.retries) ?(backoff = default_policy.backoff)
    ?(backoff_factor = default_policy.backoff_factor)
    ?(max_backoff = default_policy.max_backoff) ?(jitter = default_policy.jitter)
    ?(jitter_seed = default_policy.jitter_seed) ?timeout () =
  if not (jitter >= 0.0 && jitter <= 1.0) then
    invalid_arg "Guard.policy: jitter must be in [0, 1]";
  {
    retries = max 0 retries;
    backoff;
    backoff_factor;
    max_backoff;
    jitter;
    jitter_seed;
    timeout;
  }

(* splitmix64 finalizer (same mixer as {!Inject} and the nd PRNG),
   re-implemented locally so the jitter stream stays a pure function of
   (jitter_seed, key, retry) with no shared state. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1) from the top 53 bits. *)
let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let jitter_unit ~seed ~key ~retry =
  let h = ref (mix64 (Int64.of_int ((seed * 0x9e3779b9) lxor 0x6a09e667))) in
  String.iter
    (fun c ->
      h := mix64 (Int64.add (Int64.mul !h 0x100000001b3L) (Int64.of_int (Char.code c))))
    key;
  unit_float (mix64 (Int64.add !h (Int64.of_int retry)))

(* Deterministic seeded jitter: without it, N callers that failed on
   the same shared resource at the same moment all sleep the *same*
   schedule and stampede back in lockstep — exactly what a serving
   queue sees.  The per-key hash decorrelates the schedules while
   keeping every run bit-for-bit reproducible under a fixed seed. *)
let delay ?(key = "") p ~retry =
  if p.backoff <= 0.0 || retry < 1 then 0.0
  else
    let base =
      Float.min p.max_backoff (p.backoff *. (p.backoff_factor ** float_of_int (retry - 1)))
    in
    if p.jitter <= 0.0 then base
    else
      let u = jitter_unit ~seed:p.jitter_seed ~key ~retry in
      let scaled = base *. (1.0 +. (p.jitter *. (u -. 0.5))) in
      Float.min p.max_backoff scaled

let delays ?key p = List.init (max 0 p.retries) (fun i -> delay ?key p ~retry:(i + 1))

type outcome = {
  result : (float, kind) Stdlib.result;
  attempts : int;
  failures : kind list;
  slept : float;
}

let run ?(policy = default_policy) ?(inject = Inject.none) ?(sleep = Unix.sleepf)
    ?(now = Unix.gettimeofday) ?cancel ~key f =
  let externally_cancelled () =
    match cancel with Some c -> Cancel.is_cancelled c | None -> false
  in
  let attempt_once attempt =
    if Inject.should_fail inject ~key ~attempt then begin
      Inject.note inject;
      Error Injected
    end
    else
      let t0 = match policy.timeout with Some _ -> now () | None -> 0.0 in
      (* The attempt's token: the policy budget becomes a *preemptive*
         deadline the thunk polls, parented on the external shutdown
         token so either one stops the evaluation mid-flight. *)
      let token =
        match policy.timeout with
        | Some budget -> Cancel.of_deadline ?parent:cancel ~clock:now (t0 +. budget)
        | None -> (
            match cancel with Some c -> c | None -> Cancel.create ~clock:now ())
      in
      let over_budget () =
        match policy.timeout with
        | Some budget -> now () -. t0 > budget
        | None -> false
      in
      match f token with
      | exception (Cancel.Cancelled _ as e) when externally_cancelled () ->
          (* Shutdown, not a verdict on this candidate: let the search
             loop see it and stop at its own safe point. *)
          raise e
      | exception Cancel.Cancelled _ -> Error Timeout
      | exception Inject.Fault _ ->
          Inject.note inject;
          Error Injected
      | exception Reject k -> Error k
      | exception e ->
          (* An exception *after* the budget expired is a symptom of the
             overrun (allocation failure, a cascading invariant break),
             not an independent evaluation bug: classify it as the
             timeout it is. *)
          if over_budget () then Error Timeout
          else Error (Eval_error (Printexc.to_string e))
      | r ->
          (* Post-hoc check kept for thunks that never poll. *)
          if over_budget () then Error Timeout
          else if Float.is_finite r then Ok r
          else Error Non_finite
  in
  let retries = max 0 policy.retries in
  let rec go attempt failures slept =
    (match cancel with Some c -> Cancel.check c | None -> ());
    let slept =
      if attempt = 0 then slept
      else begin
        let d = delay ~key policy ~retry:attempt in
        if d > 0.0 then sleep d;
        slept +. d
      end
    in
    match attempt_once attempt with
    | Ok r -> { result = Ok r; attempts = attempt + 1; failures = List.rev failures; slept }
    | Error k ->
        if attempt >= retries || permanent k then
          { result = Error k; attempts = attempt + 1; failures = List.rev (k :: failures); slept }
        else go (attempt + 1) (k :: failures) slept
  in
  go 0 [] 0.0

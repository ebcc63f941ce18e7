module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Guard = Robust.Guard

type stats = {
  calls : int;
  rejected : int;
  rejected_replay : int;
  rejected_static : int;
  rejected_budget : int;
  rejected_differential : int;
  distilled : int;
  seconds : float;
  replay_seconds : float;
  static_seconds : float;
  budget_seconds : float;
  differential_seconds : float;
}

type t = {
  corpus : Corpus.t option;
  static_valuations : Valuation.t list;
  max_bytes : int option;
  max_flops : int option;
  budget_valuations : Valuation.t list;
  differential : Differential.config option;
  check_valuations : Valuation.t list;
  mutex : Mutex.t;
  mutable stats : stats;
}

let create ?corpus ?(static = []) ?max_bytes ?max_flops ?(valuations = []) ?differential
    ?check_valuations () =
  {
    corpus;
    static_valuations = static;
    max_bytes;
    max_flops;
    budget_valuations = valuations;
    differential;
    check_valuations = Option.value check_valuations ~default:valuations;
    mutex = Mutex.create ();
    stats =
      {
        calls = 0;
        rejected = 0;
        rejected_replay = 0;
        rejected_static = 0;
        rejected_budget = 0;
        rejected_differential = 0;
        distilled = 0;
        seconds = 0.0;
        replay_seconds = 0.0;
        static_seconds = 0.0;
        budget_seconds = 0.0;
        differential_seconds = 0.0;
      };
  }

let active t =
  t.corpus <> None || t.static_valuations <> []
  || ((t.max_bytes <> None || t.max_flops <> None) && t.budget_valuations <> [])
  || (t.differential <> None && t.check_valuations <> [])

type outcome = {
  verdicts : (Valuation.t * Analysis.Verify.verdict) list;
  report : Differential.report option;
}

(* The static stage inlined (rather than [Analysis.Verify.admit]) so a
   violation surfaces with the valuation it was proven at — exactly
   what a distilled counterexample must record. *)
let static_check t op =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
        match Analysis.Verify.program_opt op v with
        | None -> go acc rest
        | Some (Analysis.Verify.Violation d) -> Error (v, d)
        | Some verdict -> go ((v, verdict) :: acc) rest)
  in
  go [] t.static_valuations

(* Stage order is load-bearing: corpus replay touches a tensor only
   for family siblings (and nothing at all on the exact-signature fast
   path), static verification allocates nothing, budgets are pure
   arithmetic, and only then does differential validation compile and
   run the candidate on real tensors.  Failures the two expensive
   provers find are distilled back into the corpus, so the cheapest
   stage hardens as the search runs. *)
let check ?cancel t op =
  let t0 = Unix.gettimeofday () in
  let replay_dt = ref 0.0 in
  let static_dt = ref 0.0 in
  let budget_dt = ref 0.0 in
  let diff_dt = ref 0.0 in
  let distilled = ref 0 in
  let timed acc f =
    Option.iter Robust.Cancel.check cancel;
    let s = Unix.gettimeofday () in
    let r = f () in
    acc := !acc +. (Unix.gettimeofday () -. s);
    r
  in
  let distill entry =
    match t.corpus with
    | Some c -> if Corpus.add c entry then incr distilled
    | None -> ()
  in
  let result, stage =
    match
      timed replay_dt (fun () ->
          match t.corpus with None -> Ok () | Some c -> Corpus.replay c op)
    with
    | Error _ as e -> (e, `Replay)
    | Ok () -> (
        match timed static_dt (fun () -> static_check t op) with
        | Error (v, d) ->
            distill (Corpus.of_static op v d);
            ( Error (Guard.Static_violation (Analysis.Verify.diagnostic_to_string d)),
              `Static )
        | Ok verdicts -> (
            match
              timed budget_dt (fun () ->
                  Budget.admit ?max_bytes:t.max_bytes ?max_flops:t.max_flops op
                    t.budget_valuations)
            with
            | Error _ as e -> (e, `Budget)
            | Ok () -> (
                match t.differential with
                | None -> (Ok { verdicts; report = None }, `Differential)
                | Some config -> (
                    match
                      timed diff_dt (fun () ->
                          Differential.check_full ~config ?cancel op t.check_valuations)
                    with
                    | Ok report -> (Ok { verdicts; report = Some report }, `Differential)
                    | Error f ->
                        distill (Corpus.of_differential ~tolerance:config.tolerance op f);
                        (Error f.Differential.fl_kind, `Differential)))))
  in
  let dt = Unix.gettimeofday () -. t0 in
  let rejected = Result.is_error result in
  let bump st n = if rejected && stage = st then n + 1 else n in
  Mutex.protect t.mutex (fun () ->
      let s = t.stats in
      t.stats <-
        {
          calls = s.calls + 1;
          rejected = (if rejected then s.rejected + 1 else s.rejected);
          rejected_replay = bump `Replay s.rejected_replay;
          rejected_static = bump `Static s.rejected_static;
          rejected_budget = bump `Budget s.rejected_budget;
          rejected_differential = bump `Differential s.rejected_differential;
          distilled = s.distilled + !distilled;
          seconds = s.seconds +. dt;
          replay_seconds = s.replay_seconds +. !replay_dt;
          static_seconds = s.static_seconds +. !static_dt;
          budget_seconds = s.budget_seconds +. !budget_dt;
          differential_seconds = s.differential_seconds +. !diff_dt;
        });
  result

let gate t op = Result.map ignore (check t op)

let stats t = Mutex.protect t.mutex (fun () -> t.stats)

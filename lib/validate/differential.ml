module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Guard = Robust.Guard
module Inject = Robust.Inject
module Reference = Lower.Reference
module Einsum_program = Lower.Einsum_program
module Staged_exec = Lower.Staged_exec
module Specialize = Lower.Specialize
module Cancel = Robust.Cancel

type backend = Reference | Einsum | Staged | Specialized

let backend_label = function
  | Reference -> "reference"
  | Einsum -> "einsum"
  | Staged -> "staged"
  | Specialized -> "specialize"

let backend_of_label = function
  | "reference" -> Some Reference
  | "einsum" -> Some Einsum
  | "staged" -> Some Staged
  | "specialize" -> Some Specialized
  | _ -> None

let backends = [ Reference; Einsum; Staged; Specialized ]

type fault_mode = Corrupt_output | Corrupt_expr

type fault = { f_backend : backend; f_inject : Inject.t; f_mode : fault_mode }

let fault ?(seed = 0) ?(rate = 1.0) ?(mode = Corrupt_output) backend =
  { f_backend = backend; f_inject = Inject.create ~seed ~rate (); f_mode = mode }

let fault_count f = Inject.injected_count f.f_inject

(* A seeded out-of-bounds gather: shift the first input coordinate
   expression two extents past its window, so its range can never
   intersect [0, extent).  Every backend zero-clips out-of-window
   reads ([Reference.forward]'s per-output clip, the einsum gather's
   clipped table entries), so all backends agree on an all-zero gather
   and differential comparison alone cannot see the fault — the static
   verifier rejects it as a bounds [Violation]. *)
let corrupt_operator (op : Graph.operator) =
  match (op.Graph.op_input_exprs, op.Graph.op_input_shape) with
  | e :: es, s :: _ ->
      let shifted = Ast.add e (Ast.Size_const (Size.mul (Size.of_int 2) s)) in
      { op with Graph.op_input_exprs = shifted :: es }
  | _ -> op

type config = { tolerance : float; seed : int; fault : fault option }

let default_config = { tolerance = 1e-6; seed = 0; fault = None }

let config ?(tolerance = default_config.tolerance) ?(seed = default_config.seed)
    ?fault () =
  if not (tolerance > 0.0) then invalid_arg "Differential.config: tolerance must be > 0";
  { tolerance; seed; fault }

(* The input/weight RNG seed is a pure function of (config seed,
   operator signature) so verdicts are reproducible and independent of
   evaluation order — and so a distilled counterexample can record the
   derived value and replay the exact same tensors later. *)
let derive_seed ~seed key = seed lxor (Hashtbl.hash key land 0x3fffffff)

type pair_stats = {
  ps_backend : backend;
  ps_max_abs_err : float;
  ps_max_rel_err : float;
  ps_first_fail : (int * float * float) option;
  ps_seconds : float;
}

type report = {
  rep_valuations : int;
  rep_elements : int;
  rep_max_rel_err : float;
  rep_pairs : pair_stats list;
  rep_sums : float list;
}

let empty_report =
  {
    rep_valuations = 0;
    rep_elements = 0;
    rep_max_rel_err = 0.0;
    rep_pairs = [];
    rep_sums = [];
  }

type failure = {
  fl_kind : Guard.kind;
  fl_valuation : Valuation.t;
  fl_seed : int;  (** the derived RNG seed the failing tensors came from *)
  fl_backend : backend option;
  fl_index : int option;
  fl_expected : float option;
  fl_got : float option;
  fl_abs_err : float;
}

(* A seeded miscompile: corrupt one deterministic element of the chosen
   backend's output.  The offset depends only on (key, numel) and the
   injected absolute error is >= 1, far outside any sane tolerance. *)
let maybe_corrupt config ~key backend out =
  match config.fault with
  | Some f
    when f.f_mode = Corrupt_output && f.f_backend = backend
         && Inject.should_fail f.f_inject ~key ~attempt:0 ->
      Inject.note f.f_inject;
      let n = Tensor.numel out in
      if n > 0 then begin
        let i = Hashtbl.hash (key, "miscompile") mod n in
        let v = Tensor.flat_get out i in
        Tensor.flat_set out i (v +. 1.0 +. Float.abs v)
      end
  | Some _ | None -> ()

(* Weights first, then the input: one seeded draw for the cross-check,
   a replayed counterexample and the checksum the daemon serves. *)
let draw compiled seed =
  let rng = Nd.Rng.create ~seed in
  let weights = Reference.init_weights compiled rng in
  let input = Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.input_shape compiled) in
  (input, weights)

(* One backend's forward pass, or [None] when it declines the
   operator: only the specialized kernel can, when certification
   declines under the [`Auto] rule.  It reuses the staged backend's
   compile, hence the shared [staged]. *)
let compile_backend ?cancel op valuation ~reference ~staged = function
  | Reference -> Some (Reference.forward reference)
  | Einsum -> Some (Einsum_program.forward (Einsum_program.compile op valuation))
  | Staged -> Some (Staged_exec.forward ?cancel (Lazy.force staged))
  | Specialized -> (
      match Analysis.Certify.specialize (Lazy.force staged) with
      | Ok (Some sp) -> Some (Specialize.forward ?cancel sp)
      | Ok None | Error _ -> None)

(* [Ok None]: the backend declined.  The seconds are the forward pass
   alone, compile excluded. *)
let run_backend ?cancel op valuation ~reference ~staged ~input ~weights backend =
  let fail msg =
    Error (Guard.Eval_error (Printf.sprintf "validate(%s): %s" (backend_label backend) msg))
  in
  match compile_backend ?cancel op valuation ~reference ~staged backend with
  | exception Failure msg -> fail msg
  | None -> Ok None
  | Some forward -> (
      let t0 = Unix.gettimeofday () in
      match forward ~input ~weights with
      | exception Failure msg -> fail msg
      | out -> Ok (Some (out, Unix.gettimeofday () -. t0)))

let first_non_finite t =
  let data = Tensor.unsafe_data t in
  let n = Array.length data in
  let rec go i =
    if i >= n then None else if Float.is_finite data.(i) then go (i + 1) else Some i
  in
  go 0

(* Hybrid absolute/relative comparison against the reference value:
   |a - r| <= tol * (1 + |r|), so tiny outputs are compared absolutely
   and large ones relatively.  Returns the per-pair statistics the
   report (and a distilled counterexample) records: worst absolute and
   relative errors plus the first element beyond tolerance. *)
let compare_data ~tolerance r c =
  let max_abs = ref 0.0 in
  let max_rel = ref 0.0 in
  let violation = ref None in
  Array.iteri
    (fun i rv ->
      let cv = c.(i) in
      let abs = Float.abs (cv -. rv) in
      let rel = abs /. (1.0 +. Float.abs rv) in
      if abs > !max_abs then max_abs := abs;
      if rel > !max_rel then max_rel := rel;
      if rel > tolerance && !violation = None then violation := Some (i, rv, cv))
    r;
  (!max_abs, !max_rel, !violation)

let compare_against config ~backend reference candidate =
  if Tensor.shape reference <> Tensor.shape candidate then
    Error
      ( Guard.Backend_mismatch
          (Printf.sprintf "%s: output shape differs from reference" (backend_label backend)),
        None )
  else begin
    let max_abs, max_rel, violation =
      compare_data ~tolerance:config.tolerance
        (Tensor.unsafe_data reference)
        (Tensor.unsafe_data candidate)
    in
    match violation with
    | Some (i, rv, cv) ->
        Error
          ( Guard.Backend_mismatch
              (Printf.sprintf
                 "%s[%d] = %h, reference = %h (abs err %.3e, rel err %.3e > tol %.3e)"
                 (backend_label backend) i cv rv max_abs max_rel config.tolerance),
            Some (i, rv, cv, max_abs) )
    | None ->
        Ok
          {
            ps_backend = backend;
            ps_max_abs_err = max_abs;
            ps_max_rel_err = max_rel;
            ps_first_fail = None;
            ps_seconds = 0.0;
          }
  end

(* [Ok None]: the operator is not instantiable at this valuation —
   there is nothing to execute, so nothing to cross-check.  Skipping
   (rather than erroring) keeps the gate's verdict independent of which
   tiny validation shapes the caller picked: admission must never
   quarantine a candidate the un-validated search would have scored.
   The reference runs on the tensors drawn from [seed] and each of
   [against] is compared with it; [cancel] is polled between backends
   and inside the staged and specialized forward passes. *)
let check_valuation ?cancel config ~key ~seed ~against op valuation =
  let fail ?backend ?index ?expected ?got ?(abs_err = 0.0) kind =
    Error
      {
        fl_kind = kind;
        fl_valuation = valuation;
        fl_seed = seed;
        fl_backend = backend;
        fl_index = index;
        fl_expected = expected;
        fl_got = got;
        fl_abs_err = abs_err;
      }
  in
  match Reference.compile op valuation with
  | exception Failure _ -> Ok None
  | compiled -> (
      let input, weights = draw compiled seed in
      match Reference.forward compiled ~input ~weights with
      | exception Failure msg -> fail (Guard.Eval_error ("validate(reference): " ^ msg))
      | reference -> (
          maybe_corrupt config ~key Reference reference;
          match first_non_finite reference with
          | Some i ->
              fail ~backend:Reference ~index:i
                ~got:(Tensor.flat_get reference i)
                (Guard.Backend_mismatch "reference: non-finite output on finite inputs")
          | None ->
              let staged = lazy (Staged_exec.compile op valuation) in
              let check_one backend =
                Option.iter Cancel.check cancel;
                match
                  run_backend ?cancel op valuation ~reference:compiled ~staged ~input ~weights
                    backend
                with
                | Error kind -> fail ~backend kind
                | Ok None -> Ok None
                | Ok (Some (out, seconds)) -> (
                    maybe_corrupt config ~key backend out;
                    match first_non_finite out with
                    | Some i ->
                        fail ~backend ~index:i
                          ~expected:(Tensor.flat_get reference i)
                          ~got:(Tensor.flat_get out i)
                          (Guard.Backend_mismatch
                             (Printf.sprintf "%s: non-finite output on finite inputs"
                                (backend_label backend)))
                    | None -> (
                        match compare_against config ~backend reference out with
                        | Ok stats -> Ok (Some { stats with ps_seconds = seconds })
                        | Error (kind, Some (i, rv, cv, abs)) ->
                            fail ~backend ~index:i ~expected:rv ~got:cv ~abs_err:abs kind
                        | Error (kind, None) -> fail ~backend kind))
              in
              let rec all acc = function
                | [] -> Ok (Some (Tensor.numel reference, Tensor.sum reference, List.rev acc))
                | backend :: rest -> (
                    match check_one backend with
                    | Error _ as e -> e
                    | Ok None -> all acc rest
                    | Ok (Some stats) -> all (stats :: acc) rest)
              in
              all [] against))

(* Fold the per-valuation pair statistics into one worst-case entry per
   backend, so the report stays small no matter how many valuations
   were cross-checked. *)
let merge_pairs acc stats =
  List.fold_left
    (fun acc s ->
      match List.partition (fun p -> p.ps_backend = s.ps_backend) acc with
      | [], rest -> s :: rest
      | p :: _, rest ->
          {
            ps_backend = s.ps_backend;
            ps_max_abs_err = Float.max p.ps_max_abs_err s.ps_max_abs_err;
            ps_max_rel_err = Float.max p.ps_max_rel_err s.ps_max_rel_err;
            ps_first_fail = (if p.ps_first_fail <> None then p.ps_first_fail else s.ps_first_fail);
            ps_seconds = p.ps_seconds +. s.ps_seconds;
          }
          :: rest)
    acc stats

let check_full ?(config = default_config) ?cancel op valuations =
  let key = Graph.operator_signature op in
  let op =
    match config.fault with
    | Some f when f.f_mode = Corrupt_expr && Inject.should_fail f.f_inject ~key ~attempt:0 ->
        Inject.note f.f_inject;
        corrupt_operator op
    | Some _ | None -> op
  in
  let seed = derive_seed ~seed:config.seed key in
  let against = List.filter (( <> ) Reference) backends in
  let rec go acc = function
    | [] -> Ok acc
    | v :: rest -> (
        match check_valuation ?cancel config ~key ~seed ~against op v with
        | Ok None -> go acc rest
        | Ok (Some (elems, sum, stats)) ->
            let rel =
              List.fold_left (fun m s -> Float.max m s.ps_max_rel_err) acc.rep_max_rel_err
                stats
            in
            go
              {
                rep_valuations = acc.rep_valuations + 1;
                rep_elements = acc.rep_elements + elems;
                rep_max_rel_err = rel;
                rep_pairs = merge_pairs acc.rep_pairs stats;
                rep_sums = acc.rep_sums @ [ sum ];
              }
              rest
        | Error _ as e -> e)
  in
  go empty_report valuations

let check ?config op valuations =
  Result.map_error (fun f -> f.fl_kind) (check_full ?config op valuations)

(* Replay one recorded (valuation, seed, backend) counterexample
   against a fresh candidate: the exact tensors the original failure
   ran on, but only the single backend pair that diverged, on the same
   path as [check_full] with no fault injection in the loop.  A
   candidate that is not instantiable at the recorded valuation, or
   whose specialized kernel no longer certifies, passes vacuously, for
   the same reason [check] skips such valuations. *)
let replay_pair ~tolerance ~seed ~backend op valuation =
  let against = if backend = Reference then [] else [ backend ] in
  match
    check_valuation { tolerance; seed = 0; fault = None } ~key:"" ~seed ~against op valuation
  with
  | Ok _ -> Ok ()
  | Error f -> Error f.fl_kind

module Valuation = Shape.Valuation
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize

type stats = { ct_nests : int; ct_accesses : int; ct_clips : int }

let reject fmt = Printf.ksprintf (fun msg -> Error (Robust.Guard.Static_violation msg)) fmt

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let rec fold_result f acc = function
  | [] -> Ok acc
  | x :: rest -> (
      match f acc x with Error _ as e -> e | Ok acc -> fold_result f acc rest)

(* Re-derive one nest's clip set: every index in range and listed once;
   every unlisted access proved in-window; no listed access proved
   in-window (a guard that can never fire is a miscompilation signal,
   not caution). *)
let validate_nest ~lookup ~what nest clips =
  let n_acc = Regions.access_count nest in
  let* () =
    if List.exists (fun i -> i < 0 || i >= n_acc) clips then
      reject "certify: %s: clip index out of range" what
    else if List.length (List.sort_uniq compare clips) <> List.length clips then
      reject "certify: %s: duplicate clip index" what
    else Ok ()
  in
  fold_result
    (fun () idx ->
      let within = Regions.access_within ~lookup nest idx in
      let listed = List.mem idx clips in
      if (not listed) && not within then reject "certify: %s: unlisted access %d may clip" what idx
      else if listed && within then reject "certify: %s: clip on proved access %d" what idx
      else Ok ())
    ()
    (List.init n_acc Fun.id)

(* Cross-check against the bounds verifier's independently recorded
   regions: a violation never certifies, and every access Verify saw
   clip must be listed in its nest or be refuted by the clip-set
   analysis (proved in-window over the whole nest). *)
let cross_check ~lookup nests plan verdict =
  let n_stages = Array.length nests - 1 in
  let nest_index what =
    if what = "final" then Some n_stages
    else
      try Scanf.sscanf what "stage %d" (fun k -> if k < n_stages then Some k else None)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match verdict with
  | Verify.Violation d ->
      reject "certify: verifier violation: %s" (Verify.diagnostic_to_string d)
  | Verify.Proved -> Ok ()
  | Verify.Padded regions ->
      fold_result
        (fun () (r : Verify.region) ->
          match nest_index r.Verify.rg_what with
          | None -> Ok ()  (* an operator-lowering region, not a staged nest *)
          | Some k ->
              let idx = r.Verify.rg_dim in
              if List.mem idx plan.(k) || Regions.access_within ~lookup nests.(k) idx then Ok ()
              else
                reject "certify: %s: access %d clips per verifier but is never listed"
                  r.Verify.rg_what idx)
        () regions

let validate staged plan =
  let lookup = Valuation.lookup (Staged.valuation staged) in
  let nests = Regions.nests staged in
  let n_nests = Array.length nests in
  let* () =
    if Array.length plan <> n_nests then
      reject "certify: plan has %d clip sets, executor has %d nests" (Array.length plan) n_nests
    else Ok ()
  in
  let* () =
    fold_result
      (fun () k ->
        let what = if k < n_nests - 1 then Printf.sprintf "stage %d" k else "final" in
        validate_nest ~lookup ~what nests.(k) plan.(k))
      ()
      (List.init n_nests Fun.id)
  in
  let* () = cross_check ~lookup nests plan (Verify.staged_of staged) in
  Ok
    {
      ct_nests = n_nests;
      ct_accesses = Array.fold_left (fun n nest -> n + Regions.access_count nest) 0 nests;
      ct_clips = Array.fold_left (fun n clips -> n + List.length clips) 0 plan;
    }

let compile staged plan =
  let* _stats = validate staged plan in
  Ok (Specialize.compile staged plan)

let specialize ?(mode = `Auto) staged =
  let cert = Regions.of_staged staged in
  let auto_skip =
    mode = `Auto
    &&
    match cert.Regions.rc_verdict with
    | Verify.Violation _ -> true
    | Verify.Proved | Verify.Padded _ -> false
  in
  if auto_skip then Ok None
  else
    match compile staged cert.Regions.rc_plan with
    | Ok sp -> Ok (Some sp)
    | Error _ when mode = `Auto -> Ok None
    | Error _ as e -> e

module Valuation = Shape.Valuation
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize

type stats = {
  ct_nests : int;
  ct_pieces : int;
  ct_interior_pieces : int;
  ct_cells : int;
  ct_interior_cells : int;
}

let reject fmt = Printf.ksprintf (fun msg -> Error (Robust.Guard.Static_violation msg)) fmt

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let rec fold_result f acc = function
  | [] -> Ok acc
  | x :: rest -> (
      match f acc x with Error _ as e -> e | Ok acc -> fold_result f acc rest)

(* Two boxes are disjoint iff some axis separates them. *)
let disjoint a b =
  let n = Array.length a.Specialize.pc_lo in
  let rec go i =
    i < n
    && (a.Specialize.pc_hi.(i) < b.Specialize.pc_lo.(i)
        || b.Specialize.pc_hi.(i) < a.Specialize.pc_lo.(i)
        || go (i + 1))
  in
  go 0

let validate_nest ~lookup ~what nest pieces =
  let axes = Regions.nest_axes nest in
  let n_axes = Array.length axes in
  let n_acc = Regions.access_count nest in
  let arr = Array.of_list pieces in
  (* Shape: every piece is a well-formed sub-box with in-range clips. *)
  let* () =
    fold_result
      (fun () p ->
        if
          Array.length p.Specialize.pc_lo <> n_axes
          || Array.length p.Specialize.pc_hi <> n_axes
        then reject "certify: %s: piece rank mismatch" what
        else if
          not
            (Array.for_all2
               (fun lo hi -> 0 <= lo && lo <= hi)
               p.Specialize.pc_lo p.Specialize.pc_hi
            && Array.for_all2 (fun hi e -> hi < e) p.Specialize.pc_hi axes)
        then reject "certify: %s: piece outside its box" what
        else if List.exists (fun i -> i < 0 || i >= n_acc) p.Specialize.pc_clips then
          reject "certify: %s: clip index out of range" what
        else if
          List.length (List.sort_uniq compare p.Specialize.pc_clips)
          <> List.length p.Specialize.pc_clips
        then reject "certify: %s: duplicate clip index" what
        else Ok ())
      () pieces
  in
  (* Exact cover: volumes sum to the box and no two pieces overlap. *)
  let volume = Array.fold_left ( * ) 1 axes in
  let covered =
    List.fold_left (fun acc p -> acc + Specialize.piece_volume p) 0 pieces
  in
  let* () =
    if covered <> volume then
      reject "certify: %s: pieces cover %d of %d cells" what covered volume
    else Ok ()
  in
  let* () =
    let n = Array.length arr in
    let rec pairs i j =
      if i >= n then Ok ()
      else if j >= n then pairs (i + 1) (i + 2)
      else if not (disjoint arr.(i) arr.(j)) then
        reject "certify: %s: pieces %d and %d overlap" what i j
      else pairs i (j + 1)
    in
    pairs 0 1
  in
  (* Re-verify every piece against the access decision procedure:
     interior pieces must prove every access in-window; border pieces
     must prove every unlisted access in-window, and must not list an
     access that is provably in-window (a guard that can never fire is
     a miscompilation signal, not caution). *)
  fold_result
    (fun () p ->
      let lo = p.Specialize.pc_lo and hi = p.Specialize.pc_hi in
      let rec go idx =
        if idx >= n_acc then Ok ()
        else
          let within = Regions.access_within ~lookup nest ~lo ~hi idx in
          let listed = List.mem idx p.Specialize.pc_clips in
          if p.Specialize.pc_interior then
            if listed then reject "certify: %s: interior piece lists clip %d" what idx
            else if not within then
              reject "certify: %s: interior access %d not proved in-window" what idx
            else go (idx + 1)
          else if (not listed) && not within then
            reject "certify: %s: unguarded access %d may clip" what idx
          else if listed && within then
            reject "certify: %s: spurious guard on proved access %d" what idx
          else go (idx + 1)
      in
      go 0)
    () pieces

(* Cross-check against the bounds verifier's independently recorded
   regions: a violation never certifies, and every access Verify saw
   clip must either be guarded somewhere in its nest or be refuted
   piece by piece (the partition analysis is strictly more precise —
   it evaluates over sub-boxes where Verify evaluated the full
   space). *)
let cross_check ~lookup nests plan verdict =
  let n_stages = Array.length nests - 1 in
  let nest_index what =
    if what = "final" then Some (n_stages)
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
              let guarded =
                List.exists
                  (fun p -> List.mem idx p.Specialize.pc_clips)
                  plan.(k)
              in
              let refuted () =
                List.for_all
                  (fun p ->
                    Regions.access_within ~lookup nests.(k)
                      ~lo:p.Specialize.pc_lo ~hi:p.Specialize.pc_hi idx)
                  plan.(k)
              in
              if guarded || refuted () then Ok ()
              else
                reject "certify: %s: access %d clips per verifier but is never guarded"
                  r.Verify.rg_what idx)
        () regions

let validate staged plan =
  let lookup = Valuation.lookup (Staged.valuation staged) in
  let nests = Regions.nests staged in
  let n_nests = Array.length nests in
  let* () =
    if Array.length plan <> n_nests then
      reject "certify: plan has %d partitions, executor has %d nests"
        (Array.length plan) n_nests
    else Ok ()
  in
  let* () =
    fold_result
      (fun () k ->
        let what =
          if k < n_nests - 1 then Printf.sprintf "stage %d" k else "final"
        in
        validate_nest ~lookup ~what nests.(k) plan.(k))
      ()
      (List.init n_nests (fun k -> k))
  in
  let verdict = Verify.staged_of staged in
  let* () = cross_check ~lookup nests plan verdict in
  let pieces = Array.fold_left (fun n ps -> n + List.length ps) 0 plan in
  let interior_pieces =
    Array.fold_left
      (fun n ps -> n + List.length (List.filter (fun p -> p.Specialize.pc_interior) ps))
      0 plan
  in
  let cells =
    Array.fold_left
      (fun n nest -> n + Array.fold_left ( * ) 1 (Regions.nest_axes nest))
      0 nests
  in
  Ok
    {
      ct_nests = n_nests;
      ct_pieces = pieces;
      ct_interior_pieces = interior_pieces;
      ct_cells = cells;
      ct_interior_cells = Specialize.interior_volume plan;
    }

let compile staged plan =
  let* _stats = validate staged plan in
  Ok (Specialize.compile staged plan)

let specialize ?(mode = `Auto) staged =
  let cert = Regions.of_staged staged in
  let auto_skip =
    mode = `Auto
    && (cert.Regions.rc_interior_fraction = 0.0
       ||
       match cert.Regions.rc_verdict with
       | Verify.Violation _ -> true
       | Verify.Proved | Verify.Padded _ -> false)
  in
  if auto_skip then Ok None
  else
    match compile staged cert.Regions.rc_plan with
    | Ok sp -> Ok (Some sp)
    | Error _ when mode = `Auto -> Ok None
    | Error _ as e -> e

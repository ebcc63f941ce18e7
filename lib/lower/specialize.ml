module Staged = Staged_exec

type plan = int list array

type fault = Dropped_clip | Spurious_clip | Duplicate_clip

let fault_to_string = function
  | Dropped_clip -> "dropped-clip"
  | Spurious_clip -> "spurious-clip"
  | Duplicate_clip -> "duplicate-clip"

(* --- Compiled form -------------------------------------------------------- *)

type t = { sp_staged : Staged.t; sp_nests : Reference.nest array }

let staged t = t.sp_staged
let clips_exactly t = Array.for_all Reference.exact t.sp_nests
let compile staged plan = { sp_staged = staged; sp_nests = Staged.nests staged plan }

let forward ?cancel t ~input ~weights =
  Staged.run_nests ?cancel t.sp_staged t.sp_nests ~input ~weights

(* --- Seeded clip-set corruption -------------------------------------------- *)

let nest_access_counts staged =
  let syms, fsym = Staged.symbolic_plan staged in
  Array.of_list
    (List.map
       (fun s -> Array.fold_left (fun n u -> n + Array.length u) 0 s.Staged.ss_uses)
       syms
    @ [ Array.fold_left (fun n d -> n + Array.length d) 0 fsym.Staged.fs_factors ])

(* Apply [fault] to the first nest that can host it. *)
let corrupt fault staged plan =
  let counts = nest_access_counts staged in
  let edit nest =
    match (fault, plan.(nest)) with
    | Dropped_clip, _ :: rest -> Some rest
    | Duplicate_clip, (c :: _ as clips) -> Some (clips @ [ c ])
    | Spurious_clip, clips -> (
        match List.find_opt (fun i -> not (List.mem i clips)) (List.init counts.(nest) Fun.id) with
        | Some i -> Some (clips @ [ i ])
        | None -> None)
    | (Dropped_clip | Duplicate_clip), [] -> None
  in
  let rec go nest =
    if nest >= Array.length plan then None
    else
      match edit nest with
      | Some clips ->
          let plan = Array.copy plan in
          plan.(nest) <- clips;
          Some plan
      | None -> go (nest + 1)
  in
  go 0

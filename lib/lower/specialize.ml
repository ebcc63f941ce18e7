module Tensor = Nd.Tensor
module Staged = Staged_exec

type plan = int list array

type fault = Dropped_clip | Spurious_clip | Duplicate_clip

let fault_to_string = function
  | Dropped_clip -> "dropped-clip"
  | Spurious_clip -> "spurious-clip"
  | Duplicate_clip -> "duplicate-clip"

(* --- Compiled form -------------------------------------------------------- *)

type t = {
  sp_staged : Staged.t;
  sp_stages : (Staged.stage_sym * Reference.nest) array;
  sp_final : Reference.nest;
}

let staged t = t.sp_staged

let clips_exactly t =
  Reference.exact t.sp_final && Array.for_all (fun (_, n) -> Reference.exact n) t.sp_stages

(* One nest's clip set as per-factor, per-dim flags, given the
   per-factor dim counts; an index outside the nest's accesses is a
   shape error. *)
let clip_flags ~what counts clips =
  let accesses = Array.fold_left ( + ) 0 counts in
  List.iter
    (fun c ->
      if c < 0 || c >= accesses then
        invalid_arg
          (Printf.sprintf "Specialize.compile: %s: clip index %d outside the nest's %d accesses"
             what c accesses))
    clips;
  let first = ref 0 in
  Array.map
    (fun n ->
      let f = !first in
      first := f + n;
      Array.init n (fun j -> List.mem (f + j) clips))
    counts

(* A stage is a contraction over the positions of its materialized
   tensor with one reduction axis, its reduced iterator: a use's index
   is its slot's position plus that slot's low (or its constant base),
   plus its coefficient times the step, its window low subtracted. *)
let stage_nest ~what sym clips =
  let n_axes = Array.length sym.Staged.ss_extents in
  let dims =
    Array.map
      (Array.map (fun u ->
           let out = Array.make n_axes 0 in
           let base =
             if u.Staged.u_slot >= 0 then begin
               out.(u.Staged.u_slot) <- 1;
               sym.Staged.ss_lows.(u.Staged.u_slot)
             end
             else u.Staged.u_base
           in
           Reference.affine_dim ~const:(base - u.Staged.u_lo) ~out ~red:[| u.Staged.u_coef |]
             ~extent:u.Staged.u_extent))
      sym.Staged.ss_uses
  in
  Reference.nest ~out_ids:[||] ~red_ids:[| 0 |] ~red_doms:[| sym.Staged.ss_dom |] ~env_size:1 dims
    ~clips:(clip_flags ~what (Array.map Array.length sym.Staged.ss_uses) clips)

let compile staged plan =
  let syms, fsym = Staged.symbolic_plan staged in
  let n_nests = List.length syms + 1 in
  if Array.length plan <> n_nests then
    invalid_arg
      (Printf.sprintf "Specialize.compile: plan has %d clip sets, executor has %d nests"
         (Array.length plan) n_nests);
  let lookup = Shape.Valuation.lookup (Staged.valuation staged) in
  let final =
    let out_ids = fsym.Staged.fs_out_ids and red_ids = fsym.Staged.fs_red_ids in
    let env_size = fsym.Staged.fs_env_size in
    Reference.nest ~out_ids ~red_ids ~red_doms:fsym.Staged.fs_red_doms ~env_size
      (Array.map
         (Array.map (fun (expr, lo, extent) ->
              Reference.expr_dim lookup ~out_ids ~red_ids ~env_size expr ~lo ~extent))
         fsym.Staged.fs_factors)
      ~clips:
        (clip_flags ~what:"final" (Array.map Array.length fsym.Staged.fs_factors)
           plan.(n_nests - 1))
  in
  {
    sp_staged = staged;
    sp_stages =
      Array.of_list
        (List.mapi
           (fun k sym -> (sym, stage_nest ~what:(Printf.sprintf "stage %d" k) sym plan.(k)))
           syms);
    sp_final = final;
  }

(* --- Execution ------------------------------------------------------------ *)

(* One nest over its factors' data [datas] into [out]: every output of
   the box [extents] through the interpreter's box driver, [red_total]
   reduction points each at most. *)
let run_nest ?cancel nest ~extents ~red_total datas out =
  Staged.run_box ?cancel ~cost:(red_total + 1) ~extents (Reference.forward_element nest datas out)

let forward ?cancel t ~input ~weights =
  let factors =
    Array.fold_left
      (fun factors (sym, nest) ->
        Staged.materialize sym factors
          (run_nest ?cancel nest ~extents:sym.Staged.ss_extents ~red_total:sym.Staged.ss_dom))
      (Staged.initial_factors t.sp_staged ~input ~weights)
      t.sp_stages
  in
  let fsym = snd (Staged.symbolic_plan t.sp_staged) in
  let out = Tensor.create fsym.Staged.fs_out_doms in
  run_nest ?cancel t.sp_final ~extents:fsym.Staged.fs_out_doms
    ~red_total:(Array.fold_left ( * ) 1 fsym.Staged.fs_red_doms)
    (Array.of_list (List.map (fun f -> Tensor.unsafe_data f.Staged.data) factors))
    (Tensor.unsafe_data out);
  out

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

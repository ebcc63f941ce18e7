module Valuation = Shape.Valuation
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize

(* One loop nest of the staged executor, as the certificate passes see
   it: either a materialization stage or the final contraction. *)
type nest_sym = Stage of Staged.stage_sym | Final of Staged.final_sym

let nests staged =
  let syms, fsym = Staged.symbolic_plan staged in
  Array.of_list (List.map (fun s -> Stage s) syms @ [ Final fsym ])

let nest_axes = function
  | Stage s -> s.Staged.ss_extents
  | Final f -> f.Staged.fs_out_doms

let access_count = function
  | Stage s -> Array.fold_left (fun n u -> n + Array.length u) 0 s.Staged.ss_uses
  | Final f -> Array.fold_left (fun n d -> n + Array.length d) 0 f.Staged.fs_factors

(* Fetch the [idx]th access, numbering factor-major in executor order —
   the same order {!Lower.Staged_exec.access_plan} flattens to, so the
   index aligns with {!Verify.region.rg_dim}. *)
let nth_flat groups idx =
  let rec go g idx =
    if g >= Array.length groups then invalid_arg "Regions: access index out of range"
    else
      let n = Array.length groups.(g) in
      if idx < n then groups.(g).(idx) else go (g + 1) (idx - n)
  in
  go 0 idx

(* The reduction term [u_coef * r] for [r] in [0, dom - 1] spans an
   interval between 0 and [u_coef * (dom - 1)], whichever order. *)
let red_span dom coef =
  let d = coef * (dom - 1) in
  (min 0 d, max 0 d)

let access_within ~lookup nest idx =
  match nest with
  | Stage s ->
      let u = nth_flat s.Staged.ss_uses idx in
      let rmin, rmax = red_span s.Staged.ss_dom u.Staged.u_coef in
      let vmin, vmax =
        if u.Staged.u_slot >= 0 then
          let low = s.Staged.ss_lows.(u.Staged.u_slot) in
          (low + rmin, low + s.Staged.ss_extents.(u.Staged.u_slot) - 1 + rmax)
        else (u.Staged.u_base + rmin, u.Staged.u_base + rmax)
      in
      vmin >= u.Staged.u_lo && vmax <= u.Staged.u_lo + u.Staged.u_extent - 1
  | Final f ->
      let expr, wlo, extent = nth_flat f.Staged.fs_factors idx in
      Interval.within (Interval.eval ~lookup expr) ~lo:wlo ~hi:(wlo + extent - 1)

(* --- Certificates --------------------------------------------------------- *)

(* The accesses not proved in-window over the nest's whole box. *)
let clip_set ~lookup nest =
  List.filter
    (fun idx -> not (access_within ~lookup nest idx))
    (List.init (access_count nest) Fun.id)

type t = {
  rc_plan : Specialize.plan;
  rc_verdict : Verify.verdict;
  rc_interior_fraction : float;
}

let of_staged staged =
  let lookup = Valuation.lookup (Staged.valuation staged) in
  let ns = nests staged in
  let plan = Array.map (clip_set ~lookup) ns in
  (* Accesses weighted by their nest's positional volume. *)
  let weighted f =
    let sum = ref 0 in
    Array.iteri
      (fun i nest -> sum := !sum + (Array.fold_left ( * ) 1 (nest_axes nest) * f i nest))
      ns;
    !sum
  in
  let total = weighted (fun _ nest -> access_count nest) in
  let proved = weighted (fun i nest -> access_count nest - List.length plan.(i)) in
  {
    rc_plan = plan;
    rc_verdict = Verify.program_of staged;
    rc_interior_fraction =
      (if total = 0 then 1.0 else float_of_int proved /. float_of_int total);
  }

let clips t = Array.fold_left (fun n clips -> n + List.length clips) 0 t.rc_plan

let summary_to_string t =
  Printf.sprintf "verdict=%s interior=%.3f clips=%d nests=%d"
    (match t.rc_verdict with
    | Verify.Proved -> "proved"
    | Verify.Padded _ -> "padded"
    | Verify.Violation _ -> "violation")
    t.rc_interior_fraction (clips t) (Array.length t.rc_plan)

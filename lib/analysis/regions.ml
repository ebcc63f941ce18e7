module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize

(* One loop nest of the staged executor, as the partition passes see
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

let access_within ~lookup nest ~lo ~hi idx =
  match nest with
  | Stage s ->
      let u = nth_flat s.Staged.ss_uses idx in
      let rmin, rmax = red_span s.Staged.ss_dom u.Staged.u_coef in
      let vmin, vmax =
        if u.Staged.u_slot >= 0 then
          let low = s.Staged.ss_lows.(u.Staged.u_slot) in
          (lo.(u.Staged.u_slot) + low + rmin, hi.(u.Staged.u_slot) + low + rmax)
        else (u.Staged.u_base + rmin, u.Staged.u_base + rmax)
      in
      vmin >= u.Staged.u_lo && vmax <= u.Staged.u_lo + u.Staged.u_extent - 1
  | Final f ->
      let expr, wlo, extent = nth_flat f.Staged.fs_factors idx in
      let env (it : Ast.iter) =
        let rec find i =
          if i >= Array.length f.Staged.fs_out_ids then
            Interval.make 0 (Size.eval it.Ast.dom lookup - 1)
          else if f.Staged.fs_out_ids.(i) = it.Ast.id then Interval.make lo.(i) hi.(i)
          else find (i + 1)
        in
        find 0
      in
      Interval.within (Interval.eval ~lookup ~env expr) ~lo:wlo ~hi:(wlo + extent - 1)

(* --- Interior inference --------------------------------------------------- *)

(* Maximal per-axis ranges where every access is provably in-window.
   Stage accesses are linear in their position axis, so the constraint
   inverts exactly; final-nest accesses are scanned value by value in
   the interval domain (sound by inclusion monotonicity) and the
   longest contiguous allowed run is kept. *)
let stage_interior s =
  let ext = s.Staged.ss_extents in
  let alo = Array.make (Array.length ext) 0 in
  let ahi = Array.mapi (fun _ e -> e - 1) ext in
  let ok = ref true in
  Array.iter
    (fun uses ->
      Array.iter
        (fun u ->
          let rmin, rmax = red_span s.Staged.ss_dom u.Staged.u_coef in
          let whi = u.Staged.u_lo + u.Staged.u_extent - 1 in
          if u.Staged.u_slot >= 0 then begin
            let slot = u.Staged.u_slot in
            let low = s.Staged.ss_lows.(slot) in
            alo.(slot) <- max alo.(slot) (u.Staged.u_lo - low - rmin);
            ahi.(slot) <- min ahi.(slot) (whi - low - rmax)
          end
          else if u.Staged.u_base + rmin < u.Staged.u_lo || u.Staged.u_base + rmax > whi
          then ok := false)
        uses)
    s.Staged.ss_uses;
  if !ok && Array.for_all2 (fun a b -> a <= b) alo ahi then Some (alo, ahi) else None

let final_interior ~lookup f =
  let m = Array.length f.Staged.fs_out_doms in
  let accesses = Array.concat (Array.to_list f.Staged.fs_factors) in
  let mentions expr id =
    List.exists (fun (it : Ast.iter) -> it.Ast.id = id) (Ast.iters expr)
  in
  (* Accesses over no output axis clip position-independently. *)
  let pos_independent_ok =
    Array.for_all
      (fun (expr, wlo, extent) ->
        Array.exists (fun id -> mentions expr id) f.Staged.fs_out_ids
        || Interval.within (Interval.eval ~lookup expr) ~lo:wlo ~hi:(wlo + extent - 1))
      accesses
  in
  if not pos_independent_ok then None
  else
    let alo = Array.make m 0 and ahi = Array.make m 0 in
    let empty = ref false in
    for i = 0 to m - 1 do
      let id = f.Staged.fs_out_ids.(i) in
      let constrained =
        Array.exists (fun (expr, _, _) -> mentions expr id) accesses
      in
      if not constrained then ahi.(i) <- f.Staged.fs_out_doms.(i) - 1
      else begin
        let allowed v =
          Array.for_all
            (fun (expr, wlo, extent) ->
              (not (mentions expr id))
              ||
              let env (it : Ast.iter) =
                if it.Ast.id = id then Interval.make v v
                else Interval.make 0 (Size.eval it.Ast.dom lookup - 1)
              in
              Interval.within (Interval.eval ~lookup ~env expr) ~lo:wlo
                ~hi:(wlo + extent - 1))
            accesses
        in
        (* Longest contiguous allowed run. *)
        let best_lo = ref 0 and best_hi = ref (-1) in
        let cur_lo = ref 0 and cur_hi = ref (-1) in
        for v = 0 to f.Staged.fs_out_doms.(i) - 1 do
          if allowed v then begin
            if !cur_hi < !cur_lo then cur_lo := v;
            cur_hi := v;
            if !cur_hi - !cur_lo > !best_hi - !best_lo then begin
              best_lo := !cur_lo;
              best_hi := !cur_hi
            end
          end
          else begin
            cur_lo := v + 1;
            cur_hi := v
          end
        done;
        if !best_hi < !best_lo then empty := true
        else begin
          alo.(i) <- !best_lo;
          ahi.(i) <- !best_hi
        end
      end
    done;
    if !empty then None else Some (alo, ahi)

(* --- Partition construction ----------------------------------------------- *)

(* Onion decomposition: axis [a]'s below/above strips clamp axes < [a]
   to the interior range and leave axes > [a] full — exact cover, no
   overlap.  Every piece's clip set is recomputed from scratch with
   {!access_within}; a strip where nothing can clip is promoted to
   interior. *)
let decompose ~lookup nest =
  let ext = nest_axes nest in
  let n_axes = Array.length ext in
  let n_acc = access_count nest in
  let mk_piece lo hi =
    let clips = ref [] in
    for idx = n_acc - 1 downto 0 do
      if not (access_within ~lookup nest ~lo ~hi idx) then clips := idx :: !clips
    done;
    {
      Specialize.pc_lo = lo;
      pc_hi = hi;
      pc_interior = !clips = [];
      pc_clips = !clips;
    }
  in
  let whole () = [ mk_piece (Array.make n_axes 0) (Array.map (fun e -> e - 1) ext) ] in
  let candidate =
    match nest with
    | Stage s -> stage_interior s
    | Final f -> final_interior ~lookup f
  in
  match candidate with
  | None -> whole ()
  | Some (alo, ahi) ->
      (* The per-axis inference is sound value by value; re-verify the
         joint box with the same decision certification uses, falling
         back to all-border if the interval domain loses precision on
         the joint ranges. *)
      let interior_ok =
        let rec go idx =
          idx >= n_acc || (access_within ~lookup nest ~lo:alo ~hi:ahi idx && go (idx + 1))
        in
        go 0
      in
      if not interior_ok then whole ()
      else
        let pieces = ref [] in
        for a = n_axes - 1 downto 0 do
          let strip range_a =
            let lo = Array.init n_axes (fun i -> if i < a then alo.(i) else 0) in
            let hi =
              Array.init n_axes (fun i -> if i < a then ahi.(i) else ext.(i) - 1)
            in
            lo.(a) <- fst range_a;
            hi.(a) <- snd range_a;
            pieces := mk_piece lo hi :: !pieces
          in
          if ahi.(a) < ext.(a) - 1 then strip (ahi.(a) + 1, ext.(a) - 1);
          if alo.(a) > 0 then strip (0, alo.(a) - 1)
        done;
        mk_piece (Array.copy alo) (Array.copy ahi) :: !pieces

(* --- Certificates --------------------------------------------------------- *)

type nest_summary = {
  ns_what : string;
  ns_axes : int array;
  ns_pieces : int;
  ns_strips : int;  (** border (guarded) pieces *)
  ns_interior_fraction : float;
}

type t = {
  rc_plan : Specialize.plan;
  rc_nests : nest_summary array;
  rc_verdict : Verify.verdict;
  rc_interior_fraction : float;
      (** volume-weighted over all nests: the fraction of executed
          elements that run the checkless path *)
}

let box_volume axes = Array.fold_left ( * ) 1 axes

let of_staged staged =
  let lookup = Valuation.lookup (Staged.valuation staged) in
  let ns = nests staged in
  let n_stages = Array.length ns - 1 in
  let plan = Array.map (fun nest -> decompose ~lookup nest) ns in
  let summaries =
    Array.mapi
      (fun i nest ->
        let axes = nest_axes nest in
        let total = box_volume axes in
        let interior =
          List.fold_left
            (fun acc p ->
              if p.Specialize.pc_interior then acc + Specialize.piece_volume p else acc)
            0 plan.(i)
        in
        {
          ns_what = (if i < n_stages then Printf.sprintf "stage %d" i else "final");
          ns_axes = axes;
          ns_pieces = List.length plan.(i);
          ns_strips =
            List.length (List.filter (fun p -> not p.Specialize.pc_interior) plan.(i));
          ns_interior_fraction =
            (if total = 0 then 0.0 else float_of_int interior /. float_of_int total);
        })
      ns
  in
  let total = Array.fold_left (fun t nest -> t + box_volume (nest_axes nest)) 0 ns in
  let interior =
    Array.fold_left
      (fun acc pieces ->
        List.fold_left
          (fun acc p ->
            if p.Specialize.pc_interior then acc + Specialize.piece_volume p else acc)
          acc pieces)
      0 plan
  in
  {
    rc_plan = plan;
    rc_nests = summaries;
    rc_verdict = Verify.program_of staged;
    rc_interior_fraction =
      (if total = 0 then 0.0 else float_of_int interior /. float_of_int total);
  }

let strips t = Array.fold_left (fun n s -> n + s.ns_strips) 0 t.rc_nests

let summary_to_string t =
  Printf.sprintf "verdict=%s interior=%.3f strips=%d nests=%d"
    (match t.rc_verdict with
    | Verify.Proved -> "proved"
    | Verify.Padded _ -> "padded"
    | Verify.Violation _ -> "violation")
    t.rc_interior_fraction (strips t) (Array.length t.rc_nests)

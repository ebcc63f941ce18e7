module Ast = Coord.Ast
module Tensor = Nd.Tensor
module Staged = Staged_exec

(* A partition certificate piece: an axis-aligned sub-box of one loop
   nest's enumerable position space ([pc_lo]/[pc_hi] inclusive, one
   entry per positional axis), plus the set of accesses that may clip
   inside it.  An interior piece carries an empty clip set and runs the
   checkless fast path; a border piece guards exactly the listed
   accesses and nothing else. *)
type piece = {
  pc_lo : int array;
  pc_hi : int array;
  pc_interior : bool;
  pc_clips : int list;
}

type partition = piece list
type plan = partition array

type fault = Overlap_strip | Duplicate_strip | Spurious_clip | Cover_gap

let fault_to_string = function
  | Overlap_strip -> "overlap-strip"
  | Duplicate_strip -> "duplicate-strip"
  | Spurious_clip -> "spurious-clip"
  | Cover_gap -> "cover-gap"

let piece_volume p =
  let v = ref 1 in
  Array.iteri (fun i lo -> v := !v * (p.pc_hi.(i) - lo + 1)) p.pc_lo;
  !v

let interior_volume plan =
  Array.fold_left
    (List.fold_left (fun v p -> if p.pc_interior then v + piece_volume p else v))
    0 plan

(* --- Compiled form -------------------------------------------------------- *)

(* Row-major strides for a dims array. *)
let strides_of extents =
  let n = Array.length extents in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * extents.(i + 1)
  done;
  s

type stage_meta = {
  sm_sym : Staged.stage_sym;
  sm_consts : int array;  (* per participating factor: constant offset part *)
  sm_axis_coefs : int array array;  (* per factor, per axis: offset per unit position *)
  sm_rcoefs : int array;  (* per factor: offset per unit reduction step *)
  sm_pieces : piece array;
  sm_checks : bool array array array;  (* per piece, per factor, per use *)
}

(* One final-factor dim, split once at compile time: its index
   (window low subtracted) at output [pos] and reduction point [r] is
   [fd_const + fd_out . pos + fd_dyn(pos) + fd_red . r]. *)
type fdim = {
  fd_factor : int;
  fd_stride : int;  (* the factor's row-major stride of this dim *)
  fd_const : int;
  fd_out : int array;  (* per output axis *)
  fd_red : int array;  (* per reduction axis *)
  fd_dyn : ((int array -> int) * int) array;
      (* non-affine terms over output iterators only: (eval, coefficient) *)
  fd_extent : int;
}

(* A final factor's flat offset, summed over its dims. *)
type ffac = {
  ff_const : int;
  ff_out : int array;
  ff_red : int array;
  ff_red_step : int;  (* offset per unit of the innermost reduction axis *)
  ff_dyn : ((int array -> int) * int) array;
}

type final_meta = {
  fm_sym : Staged.final_sym;
  fm_accs : Staged.final_access array array;
  fm_pieces : piece array;
  fm_checks : bool array array array;
  fm_dims : fdim array;
  fm_factors : ffac array;
  fm_clip : Reference.clipper option;
      (* [None] when some access is non-affine in a reduction iterator *)
}

type t = {
  sp_staged : Staged.t;
  sp_plan : plan;
  sp_stages : stage_meta array;
  sp_final : final_meta;
}

let staged t = t.sp_staged
let plan t = t.sp_plan

let checkless_volume t =
  let n = Array.length t.sp_plan in
  interior_volume (if Option.is_none t.sp_final.fm_clip then Array.sub t.sp_plan 0 (n - 1) else t.sp_plan)

let clips_exactly t = match t.sp_final.fm_clip with Some c -> Reference.exact c | None -> false

(* Translate a piece's flat clip set into per-(factor, use) check
   flags, given the per-factor use counts. *)
let checks_of_clips counts clips =
  let flags = Array.map (fun n -> Array.make n false) counts in
  List.iter
    (fun idx ->
      let rec place f idx =
        if idx < counts.(f) then flags.(f).(idx) <- true else place (f + 1) (idx - counts.(f))
      in
      place 0 idx)
    clips;
  flags

(* Shape-check one nest's partition against its box [axes] and its
   per-factor access counts, and return each piece's check flags. *)
let partition_checks ~what ~axes ~counts pieces =
  let fail msg = invalid_arg (Printf.sprintf "Specialize.compile: %s: %s" what msg) in
  let accesses = Array.fold_left ( + ) 0 counts in
  List.iter
    (fun p ->
      if Array.length p.pc_lo <> Array.length axes || Array.length p.pc_hi <> Array.length axes
      then fail "piece rank mismatch";
      Array.iteri
        (fun i lo ->
          if lo < 0 || p.pc_hi.(i) >= axes.(i) || lo > p.pc_hi.(i) then fail "piece out of box")
        p.pc_lo;
      List.iter
        (fun c ->
          if c < 0 || c >= accesses then
            fail (Printf.sprintf "clip index %d outside the nest's %d accesses" c accesses))
        p.pc_clips)
    pieces;
  Array.of_list (List.map (fun p -> checks_of_clips counts p.pc_clips) pieces)

let compile staged plan =
  let syms, fsym = Staged.symbolic_plan staged in
  let n_nests = List.length syms + 1 in
  if Array.length plan <> n_nests then
    invalid_arg
      (Printf.sprintf "Specialize.compile: plan has %d partitions, executor has %d nests"
         (Array.length plan) n_nests);
  let lookup = Shape.Valuation.lookup (Staged.valuation staged) in
  let stage_metas =
    List.mapi
      (fun k sym ->
        let pieces = plan.(k) in
        let checks =
          partition_checks ~what:(Printf.sprintf "stage %d" k) ~axes:sym.Staged.ss_extents
            ~counts:(Array.map Array.length sym.Staged.ss_uses) pieces
        in
        let n_axes = Array.length sym.Staged.ss_extents in
        let consts = Array.map (fun _ -> 0) sym.Staged.ss_uses in
        let axis_coefs = Array.map (fun _ -> Array.make n_axes 0) sym.Staged.ss_uses in
        let rcoefs = Array.map (fun _ -> 0) sym.Staged.ss_uses in
        Array.iteri
          (fun fi uses ->
            let fstrides = strides_of (Array.map (fun u -> u.Staged.u_extent) uses) in
            Array.iteri
              (fun j u ->
                let s = fstrides.(j) in
                let base =
                  if u.Staged.u_slot >= 0 then sym.Staged.ss_lows.(u.Staged.u_slot)
                  else u.Staged.u_base
                in
                consts.(fi) <- consts.(fi) + ((base - u.Staged.u_lo) * s);
                if u.Staged.u_slot >= 0 then
                  axis_coefs.(fi).(u.Staged.u_slot) <- axis_coefs.(fi).(u.Staged.u_slot) + s;
                rcoefs.(fi) <- rcoefs.(fi) + (u.Staged.u_coef * s))
              uses)
          sym.Staged.ss_uses;
        {
          sm_sym = sym;
          sm_consts = consts;
          sm_axis_coefs = axis_coefs;
          sm_rcoefs = rcoefs;
          sm_pieces = Array.of_list pieces;
          sm_checks = checks;
        })
      syms
  in
  let fpieces = plan.(n_nests - 1) in
  let fchecks =
    partition_checks ~what:"final" ~axes:fsym.Staged.fs_out_doms
      ~counts:(Array.map Array.length fsym.Staged.fs_factors) fpieces
  in
  let out_ids = fsym.Staged.fs_out_ids and red_ids = fsym.Staged.fs_red_ids in
  let m = Array.length out_ids and k = Array.length red_ids in
  let env_size = fsym.Staged.fs_env_size in
  let iter_ids = Array.append out_ids red_ids in
  let dynamic = ref false in
  let dims =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun fi dims ->
              let fstrides = strides_of (Array.map (fun (_, _, extent) -> extent) dims) in
              Array.mapi
                (fun j (expr, lo, extent) ->
                  let sp = Reference.split ~reductions:red_ids expr in
                  if sp.Reference.dynamic then dynamic := true;
                  let const = ref (-lo) and out = Array.make m 0 and red = Array.make k 0 in
                  List.iter
                    (fun (c, term) ->
                      let c0, d =
                        Reference.strides (Reference.compile_expr lookup term) ~env_size iter_ids
                      in
                      const := !const + (c * c0);
                      for a = 0 to m - 1 do
                        out.(a) <- out.(a) + (c * d.(a))
                      done;
                      for a = 0 to k - 1 do
                        red.(a) <- red.(a) + (c * d.(m + a))
                      done)
                    sp.Reference.affine;
                  {
                    fd_factor = fi;
                    fd_stride = fstrides.(j);
                    fd_const = !const;
                    fd_out = out;
                    fd_red = red;
                    fd_dyn =
                      Array.of_list
                        (List.map
                           (fun (c, term) -> (Reference.compile_expr lookup term, c))
                           sp.Reference.residue);
                    fd_extent = extent;
                  })
                dims)
            fsym.Staged.fs_factors))
  in
  let factors =
    Array.mapi
      (fun fi _ ->
        let mine = List.filter (fun d -> d.fd_factor = fi) (Array.to_list dims) in
        let sum f = List.fold_left (fun acc d -> acc + (f d * d.fd_stride)) 0 mine in
        let ff_red = Array.init k (fun a -> sum (fun d -> d.fd_red.(a))) in
        {
          ff_const = sum (fun d -> d.fd_const);
          ff_out = Array.init m (fun a -> sum (fun d -> d.fd_out.(a)));
          ff_red;
          ff_red_step = (if k = 0 then 0 else ff_red.(k - 1));
          ff_dyn =
            Array.concat
              (List.map
                 (fun d -> Array.map (fun (eval, c) -> (eval, c * d.fd_stride)) d.fd_dyn)
                 mine);
        })
      fsym.Staged.fs_factors
  in
  let clip =
    if !dynamic then None
    else
      Some
        (Reference.clipper ~doms:fsym.Staged.fs_red_doms
           ~extents:(Array.map (fun d -> d.fd_extent) dims)
           (Array.map (fun d -> Some d.fd_red) dims))
  in
  {
    sp_staged = staged;
    sp_plan = plan;
    sp_stages = Array.of_list stage_metas;
    sp_final =
      {
        fm_sym = fsym;
        fm_accs = Staged.final_accesses staged fsym;
        fm_pieces = Array.of_list fpieces;
        fm_checks = fchecks;
        fm_dims = dims;
        fm_factors = factors;
        fm_clip = clip;
      };
  }

(* --- Execution ------------------------------------------------------------ *)

(* The checkless reduction loop: [n] steps of multiply-accumulate with
   constant per-factor strides.  Accumulation is [acc +. product] with
   the product formed in factor order, exactly like the interpreter —
   so the result is bit-identical element by element. *)
let inner1 acc0 n d0 o0 s0 =
  let acc = ref acc0 and o0 = ref o0 in
  for _ = 1 to n do
    acc := !acc +. Array.unsafe_get d0 !o0;
    o0 := !o0 + s0
  done;
  !acc

let inner2 acc0 n d0 o0 s0 d1 o1 s1 =
  let acc = ref acc0 and o0 = ref o0 and o1 = ref o1 in
  for _ = 1 to n do
    acc := !acc +. (Array.unsafe_get d0 !o0 *. Array.unsafe_get d1 !o1);
    o0 := !o0 + s0;
    o1 := !o1 + s1
  done;
  !acc

let inner3 acc0 n d0 o0 s0 d1 o1 s1 d2 o2 s2 =
  let acc = ref acc0 and o0 = ref o0 and o1 = ref o1 and o2 = ref o2 in
  for _ = 1 to n do
    acc :=
      !acc
      +. (Array.unsafe_get d0 !o0 *. Array.unsafe_get d1 !o1 *. Array.unsafe_get d2 !o2);
    o0 := !o0 + s0;
    o1 := !o1 + s1;
    o2 := !o2 + s2
  done;
  !acc

let inner_n acc0 n (datas : float array array) (offs : int array) (steps : int array) =
  let acc = ref acc0 in
  let nf = Array.length datas in
  for _ = 1 to n do
    let p = ref (Array.unsafe_get (Array.unsafe_get datas 0) (Array.unsafe_get offs 0)) in
    Array.unsafe_set offs 0 (Array.unsafe_get offs 0 + Array.unsafe_get steps 0);
    for f = 1 to nf - 1 do
      p := !p *. Array.unsafe_get (Array.unsafe_get datas f) (Array.unsafe_get offs f);
      Array.unsafe_set offs f (Array.unsafe_get offs f + Array.unsafe_get steps f)
    done;
    acc := !acc +. !p
  done;
  !acc

(* One materialization stage over its certified partition: interior
   pieces run the checkless reduction loops above, border pieces the
   interpreter's own loop guarding exactly their may-clip accesses. *)
let run_stage ?cancel meta factors =
  let sym = meta.sm_sym in
  let extents = sym.Staged.ss_extents and dom = sym.Staged.ss_dom in
  let n_axes = Array.length extents in
  Staged.materialize sym factors (fun datas out ->
      let nf = Array.length datas in
      let rcoefs = meta.sm_rcoefs in
      Array.iteri
        (fun pi piece ->
          let lo = piece.pc_lo and hi = piece.pc_hi in
          if not piece.pc_interior then
            Staged.stage_loop ?cancel sym datas out ~lo ~hi ~checks:meta.sm_checks.(pi)
          else
            Staged.run_box ?cancel ~cost:(dom + 1) ~extents ~lo ~hi (fun () pos w ->
                let base fi =
                  let b = ref meta.sm_consts.(fi) in
                  let coefs = meta.sm_axis_coefs.(fi) in
                  for i = 0 to n_axes - 1 do
                    b := !b + (coefs.(i) * pos.(i))
                  done;
                  !b
                in
                out.(w) <-
                  (match nf with
                  | 1 -> inner1 0.0 dom datas.(0) (base 0) rcoefs.(0)
                  | 2 -> inner2 0.0 dom datas.(0) (base 0) rcoefs.(0) datas.(1) (base 1) rcoefs.(1)
                  | 3 ->
                      inner3 0.0 dom datas.(0) (base 0) rcoefs.(0) datas.(1) (base 1) rcoefs.(1)
                        datas.(2) (base 2) rcoefs.(2)
                  | _ -> inner_n 0.0 dom datas (Array.init nf base) rcoefs)))
        meta.sm_pieces)

(* Skipping a clipped point is exact only when the interpreter's product
   there is +-0.0, which then leaves its accumulator's bits alone (that
   accumulator starts at +0.0, so it is never -0.0): no factor value may
   be NaN, and no product of in-window values may overflow before the
   clipped factor's 0.0 joins it.  The per-factor maxima multiplied in
   factor order bound every partial product (rounding is monotone), so a
   finite bound settles both. *)
let products_bounded datas =
  let bound = ref 1.0 in
  match
    Array.iter
      (fun d ->
        let m = ref 0.0 in
        for i = 0 to Array.length d - 1 do
          let a = Float.abs (Array.unsafe_get d i) in
          if a > !m then m := a else if Float.is_nan a then raise Exit
        done;
        bound := !bound *. !m)
      datas
  with
  | () -> Float.is_finite !bound
  | exception Exit -> false

(* The final contraction over its certified partition.  Interior pieces
   run the checkless loops.  A border output clips its reduction box
   per axis ({!Reference.clip}) and runs the clipped box through the same
   checkless loops; only an output the clip cannot bound exactly, every
   border output when {!products_bounded} fails, and every piece when
   some access is non-affine in a remaining reduction iterator run the
   interpreter's own guarded loop. *)
let run_final ?cancel meta factors out =
  let sym = meta.fm_sym in
  let datas =
    Array.of_list (List.map (fun f -> Tensor.unsafe_data f.Staged.data) factors)
  in
  let nf = Array.length datas in
  let out_ids = sym.Staged.fs_out_ids in
  let m = Array.length out_ids in
  let red_doms = sym.Staged.fs_red_doms in
  let k = Array.length red_doms in
  let red_total = Array.fold_left ( * ) 1 red_doms in
  let rsteps = Array.map (fun f -> f.ff_red_step) meta.fm_factors in
  let red_cols =
    Array.init (max 0 (k - 1)) (fun a -> Array.map (fun f -> f.ff_red.(a)) meta.fm_factors)
  in
  (* One innermost reduction run of [n] steps from the running offsets
     [offs]; [scratch] is [inner_n]'s private copy, which it advances. *)
  let inner offs scratch n acc =
    match nf with
    | 1 -> inner1 acc n datas.(0) offs.(0) rsteps.(0)
    | 2 -> inner2 acc n datas.(0) offs.(0) rsteps.(0) datas.(1) offs.(1) rsteps.(1)
    | 3 ->
        inner3 acc n datas.(0) offs.(0) rsteps.(0) datas.(1) offs.(1) rsteps.(1) datas.(2)
          offs.(2) rsteps.(2)
    | _ ->
        Array.blit offs 0 scratch 0 nf;
        inner_n acc n datas scratch rsteps
  in
  (* The checkless reduction over a box of extents [exts], from the
     offsets [offs] of its first point, in row-major order.  The
     innermost axis is one [inner] run; the outer axes step an odometer
     over [offs]: each step adds the axis's stride, a carry takes back
     [extent * stride]. *)
  let reduce offs scratch rv exts =
    let last = if k = 0 then 1 else exts.(k - 1) in
    let outer = ref 1 in
    for a = 0 to k - 2 do
      outer := !outer * exts.(a)
    done;
    Array.fill rv 0 (Array.length rv) 0;
    let acc = ref 0.0 in
    for _ = 1 to !outer do
      acc := inner offs scratch last !acc;
      let a = ref (k - 2) in
      while !a >= 0 do
        let ax = !a in
        let cols = red_cols.(ax) in
        rv.(ax) <- rv.(ax) + 1;
        for fi = 0 to nf - 1 do
          offs.(fi) <- offs.(fi) + cols.(fi)
        done;
        if rv.(ax) < exts.(ax) then a := -1
        else begin
          rv.(ax) <- 0;
          let e = exts.(ax) in
          for fi = 0 to nf - 1 do
            offs.(fi) <- offs.(fi) - (e * cols.(fi))
          done;
          decr a
        end
      done
    done;
    !acc
  in
  (* Per-range scratch of both checkless elements. *)
  let scratch () =
    let env = Array.make sym.Staged.fs_env_size 0 in
    (env, Array.make nf 0, Array.make nf 0, Array.make (max 1 k) 0)
  in
  let set_env env pos =
    for i = 0 to m - 1 do
      env.(out_ids.(i)) <- pos.(i)
    done
  in
  (* Interior: per output point, per-factor base offsets from the affine
     terms plus the output-only residue, then the whole reduction box. *)
  let interior () =
    let env, offs, scratch, rv = scratch () in
    fun pos w ->
      set_env env pos;
      for fi = 0 to nf - 1 do
        let f = meta.fm_factors.(fi) in
        let b = ref f.ff_const in
        for i = 0 to m - 1 do
          b := !b + (f.ff_out.(i) * pos.(i))
        done;
        for d = 0 to Array.length f.ff_dyn - 1 do
          let eval, c = f.ff_dyn.(d) in
          b := !b + (c * eval env)
        done;
        offs.(fi) <- !b
      done;
      out.(w) <- reduce offs scratch rv red_doms
  in
  (* Border: per output point, each dim's index at the box's zero
     corner, the clip, then the clipped box from its first point. *)
  let border clip checks () =
    let env, offs, scratch, rv = scratch () in
    let dims = meta.fm_dims in
    let base = Array.make (Array.length dims) 0 in
    let rlo = Array.make k 0 and rext = Array.make k 0 in
    fun pos w ->
      set_env env pos;
      for d = 0 to Array.length dims - 1 do
        let dim = dims.(d) in
        let b = ref dim.fd_const in
        for i = 0 to m - 1 do
          b := !b + (dim.fd_out.(i) * pos.(i))
        done;
        for e = 0 to Array.length dim.fd_dyn - 1 do
          let eval, c = dim.fd_dyn.(e) in
          b := !b + (c * eval env)
        done;
        base.(d) <- !b
      done;
      match Reference.clip clip base ~lo:rlo ~ext:rext with
      | Reference.Empty -> out.(w) <- 0.0
      | Reference.Inside ->
          Array.fill offs 0 nf 0;
          for d = 0 to Array.length dims - 1 do
            let dim = dims.(d) in
            offs.(dim.fd_factor) <- offs.(dim.fd_factor) + (base.(d) * dim.fd_stride)
          done;
          for fi = 0 to nf - 1 do
            let f = meta.fm_factors.(fi) in
            for a = 0 to k - 1 do
              offs.(fi) <- offs.(fi) + (rlo.(a) * f.ff_red.(a))
            done
          done;
          out.(w) <- reduce offs scratch rv rext
      | Reference.Partial ->
          Staged.final_loop sym meta.fm_accs datas out ~lo:pos ~hi:pos ~checks
  in
  let clip_borders =
    match meta.fm_clip with
    | Some c
      when Array.exists (fun p -> not p.pc_interior) meta.fm_pieces && products_bounded datas
      ->
        Some c
    | _ -> None
  in
  Array.iteri
    (fun pi piece ->
      let lo = piece.pc_lo and hi = piece.pc_hi and checks = meta.fm_checks.(pi) in
      let run make =
        Staged.run_box ?cancel ~cost:(red_total + 1) ~extents:sym.Staged.fs_out_doms ~lo ~hi make
      in
      match clip_borders with
      | _ when piece.pc_interior && Option.is_some meta.fm_clip -> run interior
      | Some c when not piece.pc_interior -> run (border c checks)
      | _ -> Staged.final_loop ?cancel sym meta.fm_accs datas out ~lo ~hi ~checks)
    meta.fm_pieces

let forward ?cancel t ~input ~weights =
  let staged = t.sp_staged in
  let factors =
    Array.fold_left
      (fun factors meta -> run_stage ?cancel meta factors)
      (Staged.initial_factors staged ~input ~weights)
      t.sp_stages
  in
  let out = Tensor.create (Reference.output_shape (Staged.reference staged)) in
  run_final ?cancel t.sp_final factors (Tensor.unsafe_data out);
  out

(* --- Seeded plan corruption ----------------------------------------------- *)

let nest_access_counts staged =
  let syms, fsym = Staged.symbolic_plan staged in
  Array.of_list
    (List.map
       (fun s -> Array.fold_left (fun n u -> n + Array.length u) 0 s.Staged.ss_uses)
       syms
    @ [ Array.fold_left (fun n d -> n + Array.length d) 0 fsym.Staged.fs_factors ])

(* Apply [fault] to the first nest that can host it.  Every fault except
   [Cover_gap] is execution-invisible by construction: the corrupted
   plan computes bit-identical outputs (overlapping and duplicated
   pieces recompute the same values into the same cells; a spurious
   clip adds a guard that can never fire) — only {!Analysis.Certify}
   can tell it from a sound plan. *)
let corrupt fault staged plan =
  let plan = Array.map (fun pieces -> pieces) plan in
  let replace nest pieces = plan.(nest) <- pieces in
  let find f =
    let rec go nest = if nest >= Array.length plan then None else
      match f nest plan.(nest) with Some pieces -> Some (nest, pieces) | None -> go (nest + 1)
    in
    go 0
  in
  let splittable pieces =
    List.find_opt
      (fun p -> Array.exists (fun i -> p.pc_hi.(i) - p.pc_lo.(i) >= 1) (Array.init (Array.length p.pc_lo) (fun i -> i)))
      pieces
  in
  let applied =
    match fault with
    | Overlap_strip ->
        (* Split a piece into two halves that both contain the middle
           plane: the overlap cells are computed twice, identically. *)
        find (fun _ pieces ->
            match splittable pieces with
            | None -> None
            | Some p ->
                let a =
                  let rec go i = if p.pc_hi.(i) - p.pc_lo.(i) >= 1 then i else go (i + 1) in
                  go 0
                in
                let mid = (p.pc_lo.(a) + p.pc_hi.(a)) / 2 in
                let lo_half = { p with pc_hi = Array.mapi (fun i v -> if i = a then mid else v) p.pc_hi } in
                let hi_half = { p with pc_lo = Array.mapi (fun i v -> if i = a then mid else v) p.pc_lo } in
                Some
                  (List.concat_map
                     (fun q -> if q == p then [ lo_half; hi_half ] else [ q ])
                     pieces))
    | Duplicate_strip ->
        find (fun _ pieces ->
            match
              List.find_opt (fun p -> not p.pc_interior) pieces
              |> fun b -> (match b with Some _ -> b | None -> (match pieces with p :: _ -> Some p | [] -> None))
            with
            | None -> None
            | Some p -> Some (pieces @ [ p ]))
    | Spurious_clip ->
        let counts = nest_access_counts staged in
        find (fun nest pieces ->
            if counts.(nest) = 0 then None
            else
              let rec pick = function
                | [] -> None
                | p :: rest -> (
                    let unlisted =
                      let rec go i =
                        if i >= counts.(nest) then None
                        else if List.mem i p.pc_clips then go (i + 1)
                        else Some i
                      in
                      go 0
                    in
                    match unlisted with
                    | None -> pick rest
                    | Some idx ->
                        Some
                          (List.map
                             (fun q ->
                               if q == p then
                                 { q with pc_interior = false; pc_clips = q.pc_clips @ [ idx ] }
                               else q)
                             pieces))
              in
              pick pieces)
    | Cover_gap ->
        find (fun _ pieces ->
            match splittable pieces with
            | Some p ->
                let a =
                  let rec go i = if p.pc_hi.(i) - p.pc_lo.(i) >= 1 then i else go (i + 1) in
                  go 0
                in
                Some
                  (List.map
                     (fun q ->
                       if q == p then
                         { q with pc_hi = Array.mapi (fun i v -> if i = a then v - 1 else v) p.pc_hi }
                       else q)
                     pieces)
            | None -> ( match pieces with _ :: (_ :: _ as rest) -> Some rest | _ -> None))
  in
  match applied with
  | None -> None
  | Some (nest, pieces) ->
      replace nest pieces;
      Some plan

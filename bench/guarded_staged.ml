(* The staged interpreter's guarded element loops, kept as the [kernel]
   experiment's interpreter yardstick: every access is window-tested per
   point, and a point where some access leaves its window adds nothing.
   [Lower.Staged_exec.forward] computes the same bits through
   [Lower.Reference]'s compiled nest with every access clipped; these
   loops are the slower design the specialized kernel's speedup has
   always been measured against.

     let g = Guarded_staged.compile staged in
     Guarded_staged.forward g ~input ~weights *)

open Lower.Staged_exec
module Tensor = Nd.Tensor

(* A stage's guarded loop over its materialized tensor: the sum over the
   reduced iterator of the product of the participating factors
   [datas], written into [out].  Every access is window-tested, and a
   miss zeroes the product. *)
let stage_loop ?cancel sym datas out =
  let uses = sym.ss_uses and lows = sym.ss_lows and dom = sym.ss_dom in
  let nf = Array.length datas in
  let element pos w =
    let acc = ref 0.0 in
    for r = 0 to dom - 1 do
      let product = ref 1.0 and fi = ref 0 in
      while !fi < nf do
        let fuses = uses.(!fi) in
        let off = ref 0 and j = ref 0 in
        while !j < Array.length fuses do
          let u = fuses.(!j) in
          let idx =
            (if u.u_slot >= 0 then pos.(u.u_slot) + lows.(u.u_slot) else u.u_base)
            + (u.u_coef * r) - u.u_lo
          in
          if idx < 0 || idx >= u.u_extent then j := max_int
          else begin
            off := (!off * u.u_extent) + idx;
            incr j
          end
        done;
        if !j = max_int then begin
          product := 0.0;
          fi := nf
        end
        else begin
          product := !product *. datas.(!fi).(!off);
          incr fi
        end
      done;
      acc := !acc +. !product
    done;
    out.(w) <- !acc
  in
  run_box ?cancel ~cost:(dom + 1) ~extents:sym.ss_extents (fun () -> (element, ignore))

type final_access = { fa_eval : int array -> int; fa_lo : int; fa_extent : int }

(* The final contraction's guarded element, with its own environment:
   output [pos]'s sum over the remaining reductions of the product of
   the factors [datas], each indexed through its compiled accessors
   [accs], written into [out.(w)].  Every access is window-tested, and
   a miss zeroes the product, as in [stage_loop].  The reduction
   iterators start at 0 in [env] and step with a carry, row-major. *)
let final_element fsym accs datas out () =
  let out_ids = fsym.fs_out_ids and red_ids = fsym.fs_red_ids in
  let red_doms = fsym.fs_red_doms in
  let red_total = Array.fold_left ( * ) 1 red_doms in
  let n_out = Array.length out_ids and n_red = Array.length red_ids in
  let nf = Array.length datas in
  let env = Array.make fsym.fs_env_size 0 in
  fun pos w ->
    for i = 0 to n_out - 1 do
      env.(out_ids.(i)) <- pos.(i)
    done;
    for i = 0 to n_red - 1 do
      env.(red_ids.(i)) <- 0
    done;
    let acc = ref 0.0 in
    for _ = 1 to red_total do
      let product = ref 1.0 and fi = ref 0 in
      while !fi < nf do
        let fa = accs.(!fi) in
        let off = ref 0 and j = ref 0 in
        while !j < Array.length fa do
          let a = fa.(!j) in
          let idx = a.fa_eval env - a.fa_lo in
          if idx < 0 || idx >= a.fa_extent then j := max_int
          else begin
            off := (!off * a.fa_extent) + idx;
            incr j
          end
        done;
        if !j = max_int then begin
          product := 0.0;
          fi := nf
        end
        else begin
          product := !product *. datas.(!fi).(!off);
          incr fi
        end
      done;
      acc := !acc +. !product;
      let a = ref (n_red - 1) in
      while !a >= 0 do
        let id = red_ids.(!a) in
        env.(id) <- env.(id) + 1;
        if env.(id) < red_doms.(!a) then a := -1
        else begin
          env.(id) <- 0;
          decr a
        end
      done
    done;
    out.(w) <- !acc

type guarded = { staged : t; accs : final_access array array }

(* The final accessors are compiled once, here, outside what is timed. *)
let compile staged =
  let lookup = Shape.Valuation.lookup (valuation staged) in
  {
    staged;
    accs =
      Array.map
        (Array.map (fun (expr, lo, extent) ->
             { fa_eval = Lower.Reference.compile_expr lookup expr; fa_lo = lo; fa_extent = extent }))
        (snd (symbolic_plan staged)).fs_factors;
  }

let forward g ~input ~weights =
  let syms, fsym = symbolic_plan g.staged in
  let factors =
    List.fold_left
      (fun factors sym -> materialize sym factors (stage_loop sym))
      (initial_factors g.staged ~input ~weights)
      syms
  in
  let out = Tensor.create fsym.fs_out_doms in
  run_box
    ~cost:(Array.fold_left ( * ) 1 fsym.fs_red_doms + 1)
    ~extents:fsym.fs_out_doms
    (fun () ->
      ( final_element fsym g.accs
          (Array.of_list (List.map (fun f -> Tensor.unsafe_data f.data) factors))
          (Tensor.unsafe_data out) (),
        ignore ));
  out

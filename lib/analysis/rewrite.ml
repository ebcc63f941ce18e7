module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Graph = Pgraph.Graph

type failure = {
  fl_before : Ast.t;
  fl_after : Ast.t;
  fl_valuation : Valuation.t;
  fl_witness : (int * int) list;
  fl_lhs : int;
  fl_rhs : int;
}

type report = {
  rp_checked : int;
  rp_exhaustive : int;
  rp_sampled : int;
  rp_approx : int;
  rp_failures : failure list;
}

let empty_report =
  { rp_checked = 0; rp_exhaustive = 0; rp_sampled = 0; rp_approx = 0; rp_failures = [] }

let merge_reports a b =
  {
    rp_checked = a.rp_checked + b.rp_checked;
    rp_exhaustive = a.rp_exhaustive + b.rp_exhaustive;
    rp_sampled = a.rp_sampled + b.rp_sampled;
    rp_approx = a.rp_approx + b.rp_approx;
    rp_failures = a.rp_failures @ b.rp_failures;
  }

let failure_to_string f =
  let witness =
    String.concat ", "
      (List.map (fun (id, v) -> Printf.sprintf "i%d=%d" id v) f.fl_witness)
  in
  Format.asprintf "unsound rewrite %a => %a at {%s}: lhs %d <> rhs %d" Ast.pp f.fl_before
    Ast.pp f.fl_after witness f.fl_lhs f.fl_rhs

(* Iterators the comparison must quantify over: those of either side
   (a sound rule may drop an iterator, e.g. [j/B = 0]; it must then be
   constant in it, which only quantifying over the union can refute). *)
let joint_iters before after =
  let module M = Map.Make (Int) in
  let add m it = M.add it.Ast.id it m in
  let m = List.fold_left add M.empty (Ast.iters before) in
  let m = List.fold_left add m (Ast.iters after) in
  List.map snd (M.bindings m)

(* Exhaustive-enumeration budget on the iteration product; past it we
   fall back to corners + a deterministic pseudo-random sample. *)
let exhaustive_budget = 4096
let sample_points = 64

(* SplitMix-style deterministic stream; no global state, no clock. *)
let mix seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let check_at ~lookup ~(rw : Simplify.rewrite) valuation iters values =
  let pairs = List.combine (List.map (fun it -> it.Ast.id) iters) values in
  let env id = match List.assoc_opt id pairs with Some v -> v | None -> 0 in
  let lhs = Ast.eval ~env ~lookup rw.Simplify.rw_before in
  let rhs = Ast.eval ~env ~lookup rw.Simplify.rw_after in
  if lhs = rhs then None
  else
    Some
      {
        fl_before = rw.Simplify.rw_before;
        fl_after = rw.Simplify.rw_after;
        fl_valuation = valuation;
        fl_witness = pairs;
        fl_lhs = lhs;
        fl_rhs = rhs;
      }

(* All assignments of [doms] (inclusive upper bounds), in mixed-radix
   order, applied to [f] until it returns [Some _]. *)
let enumerate doms f =
  let n = Array.length doms in
  let total = Array.fold_left ( * ) 1 doms in
  let values = Array.make n 0 in
  let rec go flat =
    if flat >= total then None
    else begin
      let rem = ref flat in
      for i = n - 1 downto 0 do
        values.(i) <- !rem mod doms.(i);
        rem := !rem / doms.(i)
      done;
      match f (Array.to_list values) with Some _ as r -> r | None -> go (flat + 1)
    end
  in
  go 0

let sample doms f =
  let n = Array.length doms in
  (* Corners: every iterator at an extreme; capped so the corner count
     stays bounded for wide expressions. *)
  let corner_iters = min n 12 in
  let corners =
    let rec go k acc =
      if k >= 1 lsl corner_iters then acc
      else
        let values =
          List.init n (fun i ->
              if i < corner_iters && k land (1 lsl i) <> 0 then doms.(i) - 1 else 0)
        in
        go (k + 1) (values :: acc)
    in
    go 0 []
  in
  let random =
    List.init sample_points (fun p ->
        List.init n (fun i ->
            let h = mix (Int64.of_int (((p * 31) + i) * 2654435761)) in
            Int64.to_int (Int64.rem (Int64.logand h 0x7FFFFFFFFFFFFFFFL) (Int64.of_int doms.(i)))))
  in
  List.fold_left
    (fun acc values -> match acc with Some _ -> acc | None -> f values)
    None (corners @ random)

let check_rewrite valuations (rw : Simplify.rewrite) =
  let iters = joint_iters rw.Simplify.rw_before rw.Simplify.rw_after in
  let mode = ref `Exhaustive in
  let failure =
    List.fold_left
      (fun acc valuation ->
        match acc with
        | Some _ -> acc
        | None -> (
            let lookup = Valuation.lookup valuation in
            match
              List.map (fun it -> Shape.Size.eval it.Ast.dom lookup) iters
            with
            | exception Failure _ -> None (* not instantiable: proves nothing *)
            | doms_list -> (
                (* Interval pre-check: sound intervals of semantically
                   equal expressions must intersect, so disjointness
                   alone disproves the rule — the enumeration below
                   then finds a concrete witness. *)
                let doms = Array.of_list doms_list in
                let total = Array.fold_left ( * ) 1 doms in
                let run =
                  if total <= exhaustive_budget then enumerate doms
                  else begin
                    mode := `Sampled;
                    sample doms
                  end
                in
                match run (fun values -> check_at ~lookup ~rw valuation iters values) with
                | exception Failure _ -> None (* a size in the rule does not evaluate *)
                | Some _ as f -> f
                | None -> (
                    match
                      ( Interval.eval_opt ~lookup rw.Simplify.rw_before,
                        Interval.eval_opt ~lookup rw.Simplify.rw_after )
                    with
                    | Some a, Some b
                      when Interval.disjoint a ~lo:b.Interval.lo ~hi:b.Interval.hi ->
                        (* Can only be reached from a sampled run that
                           missed the witness; report the disjointness
                           with an empty witness. *)
                        Some
                          {
                            fl_before = rw.Simplify.rw_before;
                            fl_after = rw.Simplify.rw_after;
                            fl_valuation = valuation;
                            fl_witness = [];
                            fl_lhs = a.Interval.lo;
                            fl_rhs = b.Interval.lo;
                          }
                    | _ -> None))))
      None valuations
  in
  (failure, !mode)

let check_expr ctx e =
  let _, fired = Simplify.simplify_traced ctx e in
  let valuations = Simplify.valuations ctx in
  List.fold_left
    (fun report (rw : Simplify.rewrite) ->
      if rw.Simplify.rw_approx then
        { report with rp_checked = report.rp_checked + 1; rp_approx = report.rp_approx + 1 }
      else
        let failure, mode = check_rewrite valuations rw in
        {
          report with
          rp_checked = report.rp_checked + 1;
          rp_exhaustive = (report.rp_exhaustive + if mode = `Exhaustive then 1 else 0);
          rp_sampled = (report.rp_sampled + if mode = `Sampled then 1 else 0);
          rp_failures =
            (match failure with
            | Some f -> report.rp_failures @ [ f ]
            | None -> report.rp_failures);
        })
    empty_report fired

let check_operator ctx (op : Graph.operator) =
  List.fold_left
    (fun report e -> merge_reports report (check_expr ctx e))
    empty_report op.Graph.op_input_exprs

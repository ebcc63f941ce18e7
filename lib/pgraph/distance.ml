module Size = Shape.Size
module Var = Shape.Var

type side =
  | Current
  | Desired

let multiset_equal a b =
  List.length a = List.length b
  &&
  let sa = List.sort Size.compare a and sb = List.sort Size.compare b in
  List.for_all2 Size.equal sa sb

(* Costs are [infeasible]-capped ints. *)
let infeasible = max_int

(* The cost of one reshape group, from a summary of it: [n_lhs] current
   and [n_rhs] desired dims; [feasible] iff [product lhs / product rhs]
   is a size with no negative exponent, so that eliminations can shrink
   the group's product to the desired one; [ratio_one] iff that quotient
   is one.  [same x] says whether [lhs] and [rhs] are equal multisets;
   it is asked only when the ratio is one and both sides hold the same
   count >= 2, the one case where a group that needs nothing would
   otherwise be charged its regroupings. *)
let rule ~n_lhs ~n_rhs ~feasible ~ratio_one same x =
  if n_lhs = 0 then
    (* Desired dims with no current counterpart need a Reduce to
       introduce the missing variables, then regrouping: one step for
       the Reduce plus (1 + #rhs - 2) reshapes. *)
    n_rhs
  else if not feasible then infeasible
  else if ratio_one && n_lhs = n_rhs && n_lhs >= 2 && same x then 0
  else
    (* When the group's product shrinks, at least one eliminating
       primitive (Unfold window, Expand, Match) is required.  A single
       Unfold both regroups and eliminates, so the two requirements
       overlap: the bound is their maximum, not their sum. *)
    let elim = if ratio_one then 0 else 1 in
    let reshapes = if n_rhs = 0 then n_lhs - 1 else n_lhs + n_rhs - 2 in
    max reshapes elim

let group_cost lhs rhs =
  let ratio =
    match Size.div (Size.product lhs) (Size.product rhs) with
    | Some q when not (Size.has_negative_exponent q) -> Some q
    | Some _ | None -> None
  in
  let cost =
    rule ~n_lhs:(List.length lhs) ~n_rhs:(List.length rhs) ~feasible:(ratio <> None)
      ~ratio_one:(match ratio with Some q -> Size.is_one q | None -> false)
      (fun () -> multiset_equal lhs rhs)
      ()
  in
  if cost = infeasible then None else Some cost

(* --- Memoization -------------------------------------------------------- *)

(* Keyed by the sorted current and desired multisets. *)
module Memo = Hashtbl.Make (struct
  type t = Size.t list * Size.t list

  let equal (c1, d1) (c2, d2) = List.equal Size.equal c1 c2 && List.equal Size.equal d1 d2
  let hash_list = List.fold_left (fun h s -> (h * 31) + Size.hash s)
  let hash (c, d) = hash_list (hash_list 17 c + 1) d
end)

(* The memo, and the DP's scratch, indexed by block mask (and, in
   [exps], by mask and variable).  The scratch grows to the largest call
   so far and is reused, so a miss allocates no array of 2^n words. *)
type t = {
  memo : int option Memo.t;
  mutable cur : int array;  (* product of the block's current constants *)
  mutable des : int array;  (* product of its desired constants *)
  mutable n_cur : int array;  (* its current dims *)
  mutable n_des : int array;  (* its desired dims *)
  mutable exps : int array;  (* per variable: current minus desired exponent *)
  mutable cost : int array;  (* the block's group cost *)
  mutable best : int array;  (* the cheapest partition of the mask *)
}

let create () =
  {
    memo = Memo.create 1024;
    cur = [||];
    des = [||];
    n_cur = [||];
    n_des = [||];
    exps = [||];
    cost = [||];
    best = [||];
  }

let reserve t ~blocks ~nv =
  if Array.length t.cost < blocks then begin
    t.cur <- Array.make blocks 0;
    t.des <- Array.make blocks 0;
    t.n_cur <- Array.make blocks 0;
    t.n_des <- Array.make blocks 0;
    t.cost <- Array.make blocks 0;
    t.best <- Array.make blocks 0
  end;
  if Array.length t.exps < blocks * nv then t.exps <- Array.make (blocks * nv) 0

(* --- Grouping ------------------------------------------------------------ *)

(* Dimensions sharing a primary variable must live in the same group;
   we union-find primary variables, turning the dims into "units".  A
   grouping scheme is a set partition of the units and the
   coefficient-only dims in which every block holds a unit or only
   current-side coefficient dims (which an elimination can consume); a
   desired coefficient dim must join a unit's group.

   [pows.(d)] lists dim [d]'s exponents by variable index, and
   [primary.(v)] says whether variable [v] is primary.  Returns the
   units and the coefficient-only dims, as indices into [pows]. *)
let units_of pows primary =
  let parent = Array.init (Array.length primary) Fun.id in
  let rec find v = if parent.(v) = v then v else find parent.(v) in
  let primaries d = List.filter (fun (v, _) -> primary.(v)) pows.(d) in
  Array.iteri
    (fun d _ ->
      match primaries d with
      | [] -> ()
      | (first, _) :: rest ->
          List.iter
            (fun (v, _) ->
              let a = find first and b = find v in
              if a <> b then parent.(a) <- b)
            rest)
    pows;
  let root = Array.mapi (fun d _ -> match primaries d with [] -> -1 | (v, _) :: _ -> find v) pows in
  let dims = List.init (Array.length pows) Fun.id in
  let roots = List.sort_uniq Int.compare (List.filter (fun r -> r >= 0) (Array.to_list root)) in
  ( List.map (fun r -> List.filter (fun d -> root.(d) = r) dims) roots,
    List.filter (fun d -> root.(d) < 0) dims )

(* Block costs add up, so the cheapest scheme is a DP over bitmasks of
   the items (units, then coefficient-only dims): the cheapest partition
   of [mask] is the cheapest block holding its lowest item plus the
   cheapest partition of the rest.  Each block is priced from a summary
   in integers (its dim counts, constant products and exponent vector
   over the call's variables), which it gets from the block without its
   lowest item plus that item. *)
let raw_distance t ~current ~desired =
  let dims =
    Array.of_list
      (List.map (fun s -> (Current, s)) current @ List.map (fun s -> (Desired, s)) desired)
  in
  (* The call's variables, indexed once. *)
  let vars = ref [] in
  let index v =
    match List.find_opt (fun (v', _) -> Var.equal v v') !vars with
    | Some (_, i) -> i
    | None ->
        let i = List.length !vars in
        vars := (v, i) :: !vars;
        i
  in
  let pows = Array.map (fun (_, s) -> List.map (fun (v, e) -> (index v, e)) (Size.pows s)) dims in
  let nv = List.length !vars in
  let primary = Array.make nv false in
  List.iter (fun (v, i) -> primary.(i) <- Var.is_primary v) !vars;
  let units, coeff_only = units_of pows primary in
  let items = Array.of_list (units @ List.map (fun d -> [ d ]) coeff_only) in
  let n_units = List.length units and full = (1 lsl Array.length items) - 1 in
  let unit_mask = (1 lsl n_units) - 1 in
  let desired_coeffs = ref 0 in
  List.iteri
    (fun i d ->
      if fst dims.(d) = Desired then desired_coeffs := !desired_coeffs lor (1 lsl (n_units + i)))
    coeff_only;
  reserve t ~blocks:(full + 1) ~nv;
  let { cur; des; n_cur; n_des; exps; cost; best; memo = _ } = t in
  (* Each item's summary sits at its own one-item block. *)
  Array.iteri
    (fun i item ->
      let b = 1 lsl i in
      cur.(b) <- 1;
      des.(b) <- 1;
      n_cur.(b) <- 0;
      n_des.(b) <- 0;
      Array.fill exps (b * nv) nv 0;
      List.iter
        (fun d ->
          let side, s = dims.(d) in
          let sign =
            match side with
            | Current ->
                cur.(b) <- cur.(b) * Size.constant s;
                n_cur.(b) <- n_cur.(b) + 1;
                1
            | Desired ->
                des.(b) <- des.(b) * Size.constant s;
                n_des.(b) <- n_des.(b) + 1;
                -1
          in
          List.iter
            (fun (v, e) -> exps.((b * nv) + v) <- exps.((b * nv) + v) + (sign * e))
            pows.(d))
        item)
    items;
  (* The multiset check of a block whose ratio is one, on its sizes. *)
  let same b =
    let lhs = ref [] and rhs = ref [] in
    Array.iteri
      (fun i item ->
        if b land (1 lsl i) <> 0 then
          List.iter
            (fun d ->
              match dims.(d) with
              | Current, s -> lhs := s :: !lhs
              | Desired, s -> rhs := s :: !rhs)
            item)
      items;
    multiset_equal !lhs !rhs
  in
  for b = 1 to full do
    let low = b land -b in
    if b <> low then begin
      let rest = b lxor low in
      cur.(b) <- cur.(rest) * cur.(low);
      des.(b) <- des.(rest) * des.(low);
      n_cur.(b) <- n_cur.(rest) + n_cur.(low);
      n_des.(b) <- n_des.(rest) + n_des.(low);
      for v = 0 to nv - 1 do
        exps.((b * nv) + v) <- exps.((rest * nv) + v) + exps.((low * nv) + v)
      done
    end;
    cost.(b) <-
      (if b land unit_mask = 0 && b land !desired_coeffs <> 0 then infeasible
       else
         (* [product lhs / product rhs] as [Size.div] forms it. *)
         let q = cur.(b) / des.(b) in
         let nonneg = ref (cur.(b) mod des.(b) = 0 && q > 0) and zero = ref (q = 1) in
         for v = 0 to nv - 1 do
           let e = exps.((b * nv) + v) in
           if e < 0 then nonneg := false;
           if e <> 0 then zero := false
         done;
         rule ~n_lhs:n_cur.(b) ~n_rhs:n_des.(b) ~feasible:!nonneg ~ratio_one:(!nonneg && !zero)
           same b)
  done;
  best.(0) <- 0;
  for mask = 1 to full do
    let low = mask land -mask in
    let others = mask lxor low in
    (* [sub] runs over every subset of [others], down to the empty one. *)
    let m = ref infeasible and sub = ref others and more = ref true in
    while !more do
      let b = !sub lor low in
      let rest = best.(mask lxor b) in
      (if rest < infeasible then
         let c = cost.(b) in
         if c < infeasible && c + rest < !m then m := c + rest);
      if !sub = 0 then more := false else sub := (!sub - 1) land others
    done;
    best.(mask) <- !m
  done;
  if best.(full) = infeasible then None else Some best.(full)

let distance t ~current ~desired =
  let k = (List.sort Size.compare current, List.sort Size.compare desired) in
  match Memo.find_opt t.memo k with
  | Some d -> d
  | None ->
      let current, desired = k in
      let d =
        if List.equal Size.equal current desired then Some 0
        else raw_distance t ~current ~desired
      in
      Memo.add t.memo k d;
      d

let within t ~current ~desired ~budget =
  match distance t ~current ~desired with Some d -> d <= budget | None -> false

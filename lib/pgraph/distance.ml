module Size = Shape.Size
module Var = Shape.Var

type side =
  | Current
  | Desired

(* Exact divisibility without introducing denominators. *)
let div_exact a b =
  match Size.div a b with
  | Some q when not (Size.has_negative_exponent q) -> Some q
  | Some _ | None -> None

let multiset_equal a b =
  List.length a = List.length b
  &&
  let sa = List.sort Size.compare a and sb = List.sort Size.compare b in
  List.for_all2 Size.equal sa sb

(* Cost of one reshape group.  [None] = infeasible group. *)
let group_cost lhs rhs =
  if multiset_equal lhs rhs then Some 0
  else
    match (lhs, rhs) with
    (* Desired dims with no current counterpart need a Reduce to
       introduce the missing variables, then regrouping: one step for
       the Reduce plus (1 + #rhs - 2) reshapes. *)
    | [], _ :: _ -> Some (List.length rhs)
    | [], [] -> Some 0
    | _ :: _, _ -> (
        match div_exact (Size.product lhs) (Size.product rhs) with
        | None -> None
        | Some ratio ->
            (* When the group's product shrinks, at least one
               eliminating primitive (Unfold window, Expand, Match) is
               required.  A single Unfold both regroups and eliminates,
               so the two requirements overlap: the bound is their
               maximum, not their sum. *)
            let elim = if Size.is_one ratio then 0 else 1 in
            let reshapes =
              match rhs with
              | [] -> max 0 (List.length lhs - 1)
              | _ :: _ -> max 0 (List.length lhs + List.length rhs - 2)
            in
            Some (max reshapes elim))

(* --- Grouping ------------------------------------------------------------ *)

(* Dimensions sharing a primary variable must live in the same group;
   we union-find primary variables, turning the dims into "units".  A
   grouping scheme is a set partition of the units and the
   coefficient-only dims in which every block holds a unit or only
   current-side coefficient dims (which an elimination can consume); a
   desired coefficient dim must join a unit's group. *)

let primary_vars size = List.filter Var.is_primary (Size.vars size)

let units_of dims =
  (* dims : (side * Size.t) list.  Returns unit list, each a list of
     (side * Size.t), plus the coefficient-only dims. *)
  let with_primary, coeff_only =
    List.partition (fun (_, s) -> primary_vars s <> []) dims
  in
  (* Union-find over primary variable names. *)
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None -> v
    | Some p ->
        let root = find p in
        if root <> p then Hashtbl.replace parent v root;
        root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun (_, s) ->
      match List.map Var.name (primary_vars s) with
      | [] -> ()
      | first :: rest -> List.iter (union first) rest)
    with_primary;
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun ((_, s) as dim) ->
      let root = find (Var.name (List.hd (primary_vars s))) in
      let existing = try Hashtbl.find buckets root with Not_found -> [] in
      Hashtbl.replace buckets root (dim :: existing))
    with_primary;
  let units = Hashtbl.fold (fun _ dims acc -> dims :: acc) buckets [] in
  (units, coeff_only)

(* Block costs add up, so the cheapest scheme is a DP over bitmasks of
   the items (units, then coefficient-only dims): the cheapest partition
   of [mask] is the cheapest block holding its lowest item plus the
   cheapest partition of the rest.  Costs are [infeasible]-capped ints. *)
let infeasible = max_int
let unknown = -1

let raw_distance ~current ~desired =
  if multiset_equal current desired then Some 0
  else
    let dims =
      List.map (fun s -> (Current, s)) current @ List.map (fun s -> (Desired, s)) desired
    in
    let units, coeff_only = units_of dims in
    let items = Array.of_list (units @ List.map (fun dim -> [ dim ]) coeff_only) in
    let n_units = List.length units and full = (1 lsl Array.length items) - 1 in
    let unit_mask = (1 lsl n_units) - 1 in
    let desired_coeffs = ref 0 in
    List.iteri
      (fun i (side, _) ->
        if side = Desired then desired_coeffs := !desired_coeffs lor (1 lsl (n_units + i)))
      coeff_only;
    let costs = Array.make (full + 1) unknown in
    let block_cost b =
      if costs.(b) = unknown then
        costs.(b) <-
          (if b land unit_mask = 0 && b land !desired_coeffs <> 0 then infeasible
           else
             let lhs = ref [] and rhs = ref [] in
             Array.iteri
               (fun i item ->
                 if b land (1 lsl i) <> 0 then
                   List.iter
                     (fun (side, s) ->
                       match side with Current -> lhs := s :: !lhs | Desired -> rhs := s :: !rhs)
                     item)
               items;
             Option.value (group_cost !lhs !rhs) ~default:infeasible);
      costs.(b)
    in
    let best = Array.make (full + 1) infeasible in
    best.(0) <- 0;
    for mask = 1 to full do
      let low = mask land -mask in
      let others = mask lxor low in
      (* [sub] runs over every subset of [others], down to the empty one. *)
      let rec blocks sub =
        let b = sub lor low in
        let rest = best.(mask lxor b) in
        (if rest < infeasible then
           let c = block_cost b in
           if c < infeasible && c + rest < best.(mask) then best.(mask) <- c + rest);
        if sub > 0 then blocks ((sub - 1) land others)
      in
      blocks others
    done;
    if best.(full) = infeasible then None else Some best.(full)

(* --- Memoization -------------------------------------------------------- *)

(* Keyed by the sorted current and desired multisets. *)
module Memo = Hashtbl.Make (struct
  type t = Size.t list * Size.t list

  let equal (c1, d1) (c2, d2) = List.equal Size.equal c1 c2 && List.equal Size.equal d1 d2
  let hash_list = List.fold_left (fun h s -> (h * 31) + Size.hash s)
  let hash (c, d) = hash_list (hash_list 17 c + 1) d
end)

type t = int option Memo.t

let create () = Memo.create 1024

let distance t ~current ~desired =
  let k = (List.sort Size.compare current, List.sort Size.compare desired) in
  match Memo.find_opt t k with
  | Some d -> d
  | None ->
      let d = raw_distance ~current ~desired in
      Memo.add t k d;
      d

let within t ~current ~desired ~budget =
  match distance t ~current ~desired with Some d -> d <= budget | None -> false

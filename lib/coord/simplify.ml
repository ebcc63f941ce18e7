module Size = Shape.Size
module Valuation = Shape.Valuation
open Ast

type ctx = { valuations : Valuation.t list; approx_factor : int option }

let ctx ?(approx_factor = Some 8) valuations = { valuations; approx_factor }
let valuations c = c.valuations

(* A predicate "for all valuations" is false on an empty context: with
   no concrete evidence we must stay conservative. *)
let for_all_valuations c p =
  match c.valuations with
  | [] -> false
  | vs -> List.for_all p vs

(* Expressions may contain sizes that fail to evaluate under a given
   valuation (e.g. k/g with k = 3, g = 2); such valuations prove
   nothing. *)
let bounds_opt ~lookup e = try Some (bounds ~lookup e) with Failure _ -> None

let proves_lt c e s =
  for_all_valuations c (fun v ->
      let lookup = Valuation.lookup v in
      match (Size.eval_opt s lookup, bounds_opt ~lookup e) with
      | Some n, Some (lo, hi) -> lo >= 0 && hi < n
      | _, _ -> false)

let proves_nonneg c e =
  for_all_valuations c (fun v ->
      match bounds_opt ~lookup:(Valuation.lookup v) e with
      | Some (lo, _) -> lo >= 0
      | None -> false)

let proves_much_lt c e s =
  match c.approx_factor with
  | None -> false
  | Some factor ->
      for_all_valuations c (fun v ->
          let lookup = Valuation.lookup v in
          match (Size.eval_opt s lookup, bounds_opt ~lookup e) with
          | Some n, Some (lo, hi) ->
              (hi - lo + 1) * factor <= n && abs lo * factor <= n && abs hi * factor <= n
          | _, _ -> false)

(* --- Flattened-sum normalization ------------------------------------- *)

let rec collect_terms sign e acc =
  match e with
  | Add (a, b) -> collect_terms sign a (collect_terms sign b acc)
  | Sub (a, b) -> collect_terms sign a (collect_terms (-sign) b acc)
  | e -> (sign, e) :: acc

let terms_of e = collect_terms 1 e []

(* B*(e/B) + e%B = e: fuse matching quotient/remainder term pairs. *)
let rec fuse_divmod terms =
  let try_fuse (sign, t) rest =
    match t with
    | Mul (b, Div (e, b')) when sign = 1 && Size.equal b b' ->
        let is_mod (sign', t') = sign' = 1 && equal t' (Mod (e, b)) in
        let rec remove = function
          | [] -> None
          | x :: tl when is_mod x -> Some tl
          | x :: tl -> Option.map (fun tl' -> x :: tl') (remove tl)
        in
        Option.map (fun rest' -> ((1, e), rest')) (remove rest)
    | _ -> None
  in
  let rec go before = function
    | [] -> List.rev before
    | term :: rest -> (
        match try_fuse term (List.rev_append before rest) with
        | Some (fused, others) -> fuse_divmod (fused :: others)
        | None -> go (term :: before) rest)
  in
  go [] terms

let rebuild_terms terms =
  let const_sum, rest =
    List.fold_left
      (fun (acc, rest) (sign, e) ->
        match e with
        | Const c -> (acc + (sign * c), rest)
        | e -> (acc, (sign, e) :: rest))
      (0, []) terms
  in
  let cmp (s1, e1) (s2, e2) =
    match Int.compare s2 s1 with 0 -> Ast.compare e1 e2 | c -> c
  in
  let rest = List.sort cmp rest in
  let apply acc (sign, e) =
    match acc with
    | None -> if sign > 0 then Some e else Some (Sub (Const 0, e))
    | Some acc -> if sign > 0 then Some (Add (acc, e)) else Some (Sub (acc, e))
  in
  let body = List.fold_left apply None rest in
  match (body, const_sum) with
  | None, c -> Const c
  | Some b, 0 -> b
  | Some b, c when c > 0 -> Add (b, Const c)
  | Some b, c -> Sub (b, Const (-c))

let normalize_sum e = rebuild_terms (fuse_divmod (terms_of e))
let flatten e = rebuild_terms (terms_of e)

(* --- Division and modulo over sums ------------------------------------ *)

(* The multiplicative coefficient of a term, for divisibility tests. *)
let coeff_of = function
  | Mul (s, _) -> s
  | Size_const s -> s
  | Iter _ | Const _ | Add _ | Sub _ | Div _ | Mod _ -> Size.one

let strip_coeff = function
  | Mul (_, e) -> e
  | Size_const _ -> Const 1
  | (Iter _ | Const _ | Add _ | Sub _ | Div _ | Mod _) as e -> e

let with_coeff s e =
  if Size.is_one s then e
  else
    match e with
    | Const 1 -> Size_const s
    | e -> Mul (s, e)

(* Exact monomial divisibility: the quotient must not introduce a
   denominator (a negative exponent), otherwise e.g. any term would
   count as a "multiple" of a coefficient variable. *)
let div_exact a b =
  match Size.div a b with
  | Some q when not (Size.has_negative_exponent q) -> Some q
  | Some _ | None -> None

(* Split [e]'s terms into multiples of [s] (divided through by [s]) and
   the rest. *)
let split_multiples s terms =
  List.fold_left
    (fun (multiples, rest) (sign, t) ->
      match div_exact (coeff_of t) s with
      | Some q -> ((sign, with_coeff q (strip_coeff t)) :: multiples, rest)
      | None -> (multiples, (sign, t) :: rest))
    ([], []) terms

(* Candidate common factors for the Fig. 3(a) rule: every non-unit gcd
   of a term coefficient with the divisor. *)
let candidate_factors divisor terms =
  List.sort_uniq Size.compare
    (List.filter_map
       (fun (_, t) ->
         let g = Size.gcd (coeff_of t) divisor in
         if Size.is_one g then None else Some g)
       terms)

(* Sum-aware rules return the rewritten node tagged with whether an
   {e approximate} (Fig. 3(c)) branch fired — approximate rewrites
   deliberately change concrete semantics, so the rewrite-soundness
   checker in [Analysis.Rewrite] must not hold them to exact equality. *)

(* (s*X + r) / (s*d') = X / d'        when 0 <= r < s
   (s*X + r) % (s*d') = s*(X % d') + r  idem                     *)
let rec div_of_sum c e divisor =
  let terms = terms_of e in
  (* Terms that are exact multiples of the divisor drop out:
     (d*m + r) / d = m + r/d for any integer r. *)
  let multiples, rest = split_multiples divisor terms in
  if multiples <> [] then
    let rest_e = rebuild_terms rest in
    Some (rebuild_terms ((1, Div (rest_e, divisor)) :: multiples), false)
  else
    let try_factor s =
      match Size.div divisor s with
      | None | Some _ when Size.is_one s -> None
      | None -> None
      | Some d' ->
          let mult, rest = split_multiples s terms in
          if mult = [] then None
          else
            let rest_e = rebuild_terms rest in
            if proves_lt c rest_e s then
              let x = rebuild_terms mult in
              if Size.is_one d' then Some x else Some (Div (x, d'))
            else None
    in
    match List.find_map try_factor (candidate_factors divisor terms) with
    | Some e' -> Some (e', false)
    | None -> (
        match approx_div c terms divisor with
        | Some e' -> Some (e', true)
        | None -> None)

and approx_div c terms divisor =
  (* Fig. 3(c): drop additive perturbations that are tiny w.r.t. the
     divisor, e.g. (i + j - K/2)/B = i/B when dom(j), K << B. *)
  let small, large =
    List.partition
      (fun (sign, t) ->
        let signed = if sign > 0 then t else Sub (Const 0, t) in
        proves_much_lt c signed divisor)
      terms
  in
  if small = [] || large = [] then None
  else
    let large_e = rebuild_terms large in
    if proves_nonneg c large_e then Some (Div (large_e, divisor)) else None

let mod_of_sum c e divisor =
  let terms = terms_of e in
  let multiples, rest = split_multiples divisor terms in
  if multiples <> [] then Some (Mod (rebuild_terms rest, divisor), false)
  else
    let try_factor s =
      match Size.div divisor s with
      | None -> None
      | Some d' ->
          let mult, rest = split_multiples s terms in
          if mult = [] then None
          else
            let rest_e = rebuild_terms rest in
            if proves_lt c rest_e s then
              let x = rebuild_terms mult in
              let inner = if Size.is_one d' then Const 0 else Mod (x, d') in
              Some (rebuild_terms ((1, with_coeff s inner) :: terms_of rest_e))
            else None
    in
    match List.find_map try_factor (candidate_factors divisor terms) with
    | Some e' -> Some (e', false)
    | None ->
        (* Approximate: hoist small perturbations out of the modulo. *)
        let small, large =
          List.partition
            (fun (sign, t) ->
              let signed = if sign > 0 then t else Sub (Const 0, t) in
              proves_much_lt c signed divisor)
            terms
        in
        if small = [] || large = [] then None
        else
          let large_e = rebuild_terms large in
          Some (rebuild_terms ((1, Mod (large_e, divisor)) :: small), true)

(* --- Rewrite rules ---------------------------------------------------- *)

let rule_at c node =
  match node with
  (* Units and constant folding. *)
  | Mul (s, e) when Size.is_one s -> Some (e, false)
  | Mul (_, Const 0) -> Some (Const 0, false)
  | Mul (s, Const k) when k > 0 && Size.is_constant s ->
      Some (Const (Size.constant s * k), false)
  | Mul (s, Const 1) -> Some (Size_const s, false)
  | Mul (s1, Mul (s2, e)) -> Some (Mul (Size.mul s1 s2, e), false)
  | Mul (s, Size_const s') -> Some (Size_const (Size.mul s s'), false)
  | Size_const s when Size.is_constant s -> Some (Const (Size.constant s), false)
  | Div (e, s) when Size.is_one s -> Some (e, false)
  | Mod (_, s) when Size.is_one s -> Some (Const 0, false)
  | Div (Const k, s) when Size.is_constant s -> Some (Const (fdiv k (Size.constant s)), false)
  | Mod (Const k, s) when Size.is_constant s -> Some (Const (emod k (Size.constant s)), false)
  (* Distribute multiplication over sums: removes parentheses (\u{00a7}6). *)
  | Mul (s, Add (a, b)) -> Some (Add (Mul (s, a), Mul (s, b)), false)
  | Mul (s, Sub (a, b)) -> Some (Sub (Mul (s, a), Mul (s, b)), false)
  (* Nested divisions combine. *)
  | Div (Div (e, a), b) -> Some (Div (e, Size.mul a b), false)
  (* Range-based collapses, justified under every extracted valuation. *)
  | Div (e, s) when proves_lt c e s -> Some (Const 0, false)
  | Mod (e, s) when proves_lt c e s -> Some (e, false)
  (* Sum-aware division and modulo (exact rules then Fig. 3 rules). *)
  | Div (e, s) -> div_of_sum c e s
  | Mod (e, s) -> mod_of_sum c e s
  | Mul (_, _) | Iter _ | Const _ | Size_const _ | Add _ | Sub _ -> None

let max_fuel = 400

type rewrite = { rw_before : Ast.t; rw_after : Ast.t; rw_approx : bool }

(* One bottom-up pass with local fixpointing.  [on_rewrite] observes
   every fired rule — including the structural [normalize_sum] step,
   which applies the semantic divmod-fusion rule — so callers can
   re-verify each application.  The callback defaults to a no-op, so
   the plain [simplify] hot path pays nothing. *)
let simplify_pass ?on_rewrite c e =
  let record ~approx before after =
    match on_rewrite with
    | None -> ()
    | Some f -> if not (Ast.equal before after) then f { rw_before = before; rw_after = after; rw_approx = approx }
  in
  let fuel = ref max_fuel in
  let rec fix node =
    if !fuel <= 0 then node
    else
      match rule_at c node with
      | Some (node', approx) when not (Ast.equal node' node) ->
          decr fuel;
          record ~approx node node';
          go node'
      | Some _ | None -> node
  and go e =
    let e' =
      match e with
      | Iter _ | Const _ | Size_const _ -> e
      | Add (a, b) -> Add (go a, go b)
      | Sub (a, b) -> Sub (go a, go b)
      | Mul (s, e) -> Mul (s, go e)
      | Div (e, s) -> Div (go e, s)
      | Mod (e, s) -> Mod (go e, s)
    in
    let e' = fix e' in
    match e' with
    | Add _ | Sub _ ->
        let flat = normalize_sum e' in
        if Ast.equal flat e' then flat
        else begin
          record ~approx:false e' flat;
          fix (go flat)
        end
    | Iter _ | Const _ | Size_const _ | Mul _ | Div _ | Mod _ -> e'
  in
  go e

(* Iterate passes to an outer fixpoint: a single bottom-up pass can
   expose a new redex above the point it just rewrote (e.g. a division
   materialized by [div_of_sum] whose operand only then flattens into a
   recognizable multiple), and idempotence of [simplify] — which the
   canonical-form check in [Pgraph.Canon] relies on — requires running
   those follow-ups to quiescence. *)
let max_passes = 8

let simplify_with ?on_rewrite c e =
  let rec loop n e =
    let e' = simplify_pass ?on_rewrite c e in
    if n <= 1 || Ast.equal e' e then e' else loop (n - 1) e'
  in
  loop max_passes e

let simplify c e = simplify_with c e

let simplify_traced c e =
  let fired = ref [] in
  let e' = simplify_with ~on_rewrite:(fun r -> fired := r :: !fired) c e in
  (e', List.rev !fired)


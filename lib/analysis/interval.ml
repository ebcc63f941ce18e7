module Size = Shape.Size
module Ast = Coord.Ast

type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg (Printf.sprintf "Interval.make: [%d, %d] is empty" lo hi);
  { lo; hi }

let of_const n = { lo = n; hi = n }
let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }

let scale n i =
  if n >= 0 then { lo = n * i.lo; hi = n * i.hi } else { lo = n * i.hi; hi = n * i.lo }

let fdiv i n =
  if n <= 0 then invalid_arg "Interval.fdiv: non-positive divisor";
  { lo = Ast.fdiv i.lo n; hi = Ast.fdiv i.hi n }

let emod i n =
  if n <= 0 then invalid_arg "Interval.emod: non-positive divisor";
  (* Exact when the whole range sits inside one period of the modulo
     (same floored quotient): the image is then itself contiguous. *)
  if Ast.fdiv i.lo n = Ast.fdiv i.hi n then { lo = Ast.emod i.lo n; hi = Ast.emod i.hi n }
  else { lo = 0; hi = n - 1 }

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let within i ~lo ~hi = lo <= i.lo && i.hi <= hi
let disjoint i ~lo ~hi = i.hi < lo || hi < i.lo
let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf i = Format.fprintf ppf "[%d, %d]" i.lo i.hi
let to_string i = Format.asprintf "%a" pp i

let eval ~lookup ?env e =
  let env =
    match env with
    | Some f -> f
    | None -> fun (it : Ast.iter) -> { lo = 0; hi = Size.eval it.Ast.dom lookup - 1 }
  in
  let rec go = function
    | Ast.Iter it -> env it
    | Ast.Const c -> of_const c
    | Ast.Size_const s -> of_const (Size.eval s lookup)
    | Ast.Add (a, b) -> add (go a) (go b)
    | Ast.Sub (a, b) -> sub (go a) (go b)
    | Ast.Mul (s, e) -> scale (Size.eval s lookup) (go e)
    | Ast.Div (e, s) -> fdiv (go e) (Size.eval s lookup)
    | Ast.Mod (e, s) -> emod (go e) (Size.eval s lookup)
  in
  go e

let eval_opt ~lookup ?env e = try Some (eval ~lookup ?env e) with Failure _ -> None

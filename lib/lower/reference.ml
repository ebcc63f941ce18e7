module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

(* Compile a coordinate expression into a closure over the iterator
   environment (an int array indexed by iterator id). *)
let rec compile_expr lookup (e : Ast.t) : int array -> int =
  match e with
  | Ast.Iter it ->
      let id = it.Ast.id in
      fun env -> env.(id)
  | Ast.Const c -> fun _ -> c
  | Ast.Size_const s ->
      let v = Size.eval s lookup in
      fun _ -> v
  | Ast.Add (a, b) ->
      let fa = compile_expr lookup a and fb = compile_expr lookup b in
      fun env -> fa env + fb env
  | Ast.Sub (a, b) ->
      let fa = compile_expr lookup a and fb = compile_expr lookup b in
      fun env -> fa env - fb env
  | Ast.Mul (s, a) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> n * fa env
  | Ast.Div (a, s) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> Ast.fdiv (fa env) n
  | Ast.Mod (a, s) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> Ast.emod (fa env) n

(* --- Affine splitting -------------------------------------------------------- *)

(* [e] as a signed sum of additive terms: split at [Add]/[Sub], with
   [Mul] distributed over the split.  Exact in integer arithmetic. *)
let rec terms = function
  | Ast.Add (a, b) -> terms a @ terms b
  | Ast.Sub (a, b) -> terms a @ List.map (fun (c, t) -> (-c, t)) (terms b)
  | Ast.Mul (n, e) -> List.map (fun (c, t) -> (c, Ast.Mul (n, t))) (terms e)
  | e -> [ (1, e) ]

(* An iterator-free [Div]/[Mod] is a constant; any other is not affine. *)
let rec affine = function
  | Ast.Div (e, _) | Ast.Mod (e, _) -> Ast.iters e = []
  | Ast.Add (a, b) | Ast.Sub (a, b) -> affine a && affine b
  | Ast.Mul (_, e) -> affine e
  | Ast.Iter _ | Ast.Const _ | Ast.Size_const _ -> true

type split = {
  affine : (int * Ast.t) list;
  residue : (int * Ast.t) list;
  dynamic : bool;
}

let split ~reductions e =
  let affine, rest = List.partition (fun (_, term) -> affine term) (terms e) in
  let mentions_reduction (_, term) =
    List.exists (fun (it : Ast.iter) -> Array.mem it.Ast.id reductions) (Ast.iters term)
  in
  let dynamic, residue = List.partition mentions_reduction rest in
  { affine; residue; dynamic = dynamic <> [] }

let strides eval ~env_size ids =
  let probe = Array.make (max 1 env_size) 0 in
  let c0 = eval probe in
  ( c0,
    Array.map
      (fun id ->
        probe.(id) <- 1;
        let d = eval probe - c0 in
        probe.(id) <- 0;
        d)
      ids )

(* --- Per-output clipping ------------------------------------------------------ *)

type clip = Empty | Inside | Partial

type clipper = {
  cl_doms : int array;
  cl_red : int array array;  (* per dim: stride per reduction axis *)
  cl_top : int array;  (* per dim: the last in-window index *)
  cl_axis : int array;  (* per dim: the one reduction axis it moves with, or -1 *)
  cl_singles : int array;  (* the dims that move with one axis *)
  cl_fixed : int array;  (* the followed dims that move with no axis *)
  cl_others : int array;  (* the dims that move with several axes *)
}

let clipper ~doms ~extents red =
  let n = Array.length red and k = Array.length doms in
  let axis i =
    match red.(i) with
    | None -> -1
    | Some r -> (
        match List.filter (fun j -> r.(j) <> 0) (List.init k Fun.id) with [ j ] -> j | _ -> -1)
  in
  let cl_axis = Array.init n axis in
  let indices p = Array.of_list (List.filter p (List.init n Fun.id)) in
  {
    cl_doms = doms;
    cl_red = Array.map (function Some r -> r | None -> Array.make k 0) red;
    cl_top = Array.map pred extents;
    cl_axis;
    cl_singles = indices (fun i -> cl_axis.(i) >= 0);
    cl_fixed = indices (fun i -> match red.(i) with Some r -> Array.for_all (( = ) 0) r | None -> false);
    cl_others =
      indices (fun i ->
          cl_axis.(i) < 0 && match red.(i) with Some r -> Array.exists (( <> ) 0) r | None -> false);
  }

let exact c = c.cl_others = [||]

(* Each axis is clipped to the [r] with [0 <= b + c * r <= top] for every
   dim that moves with it alone; the other dims are then range-tested
   over the clipped box. *)
let clip c base ~lo ~ext =
  let ceil_div a b = -Ast.fdiv (-a) b in
  let k = Array.length c.cl_doms in
  for j = 0 to k - 1 do
    lo.(j) <- 0;
    ext.(j) <- c.cl_doms.(j)
  done;
  let empty = ref false and partial = ref false in
  for s = 0 to Array.length c.cl_singles - 1 do
    let i = c.cl_singles.(s) in
    let j = c.cl_axis.(i) in
    let st = c.cl_red.(i).(j) and b = base.(i) and top = c.cl_top.(i) in
    let l =
      if st = 1 then -b else if st > 0 then ceil_div (-b) st else ceil_div (b - top) (-st)
    in
    let h =
      if st = 1 then top - b else if st > 0 then Ast.fdiv (top - b) st else Ast.fdiv b (-st)
    in
    let l = max l lo.(j) and h = min h (lo.(j) + ext.(j) - 1) in
    if l > h then empty := true
    else begin
      lo.(j) <- l;
      ext.(j) <- h - l + 1
    end
  done;
  for s = 0 to Array.length c.cl_fixed - 1 do
    let i = c.cl_fixed.(s) in
    if base.(i) < 0 || base.(i) > c.cl_top.(i) then empty := true
  done;
  for s = 0 to Array.length c.cl_others - 1 do
    let i = c.cl_others.(s) in
    let l = ref base.(i) and h = ref base.(i) in
    for j = 0 to k - 1 do
      let st = c.cl_red.(i).(j) in
      let a = st * lo.(j) and z = st * (lo.(j) + ext.(j) - 1) in
      l := !l + min a z;
      h := !h + max a z
    done;
    if !h < 0 || !l > c.cl_top.(i) then empty := true
    else if !l < 0 || !h > c.cl_top.(i) then partial := true
  done;
  if !empty then Empty else if !partial then Partial else Inside

type t = {
  op : Graph.operator;
  out_shape : int array;
  in_shape : int array;
  weight_shapes : int array list;
  n_env : int;  (* environment size: max iterator id + 1 *)
  spatial_ids : int array;
  reduction_ids : int array;
  reduction_doms : int array;
  input_indexers : (int array -> int) array;  (* one per input dim *)
  weight_indexers : int array array;  (* iterator ids per weight group *)
}

let compile (op : Graph.operator) valuation =
  let lookup = Valuation.lookup valuation in
  let eval_size s = Size.eval s lookup in
  let out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape) in
  let in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape) in
  let weight_shapes =
    List.map
      (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
      op.Graph.op_weights
  in
  let all_ids =
    List.map (fun it -> it.Ast.id) op.Graph.op_output_iters
    @ List.map (fun it -> it.Ast.id) op.Graph.op_reductions
  in
  let n_env = 1 + List.fold_left max (-1) all_ids in
  {
    op;
    out_shape;
    in_shape;
    weight_shapes;
    n_env;
    spatial_ids = Array.of_list (List.map (fun it -> it.Ast.id) op.Graph.op_output_iters);
    reduction_ids = Array.of_list (List.map (fun it -> it.Ast.id) op.Graph.op_reductions);
    reduction_doms =
      Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions);
    input_indexers = Array.of_list (List.map (compile_expr lookup) op.Graph.op_input_exprs);
    weight_indexers =
      Array.of_list
        (List.map (fun grp -> Array.of_list (List.map (fun it -> it.Ast.id) grp))
           op.Graph.op_weights);
  }

let output_shape t = Array.copy t.out_shape
let input_shape t = Array.copy t.in_shape
let weight_shapes t = List.map Array.copy t.weight_shapes
let operator t = t.op

(* Same convention as {!Pgraph.Flops.naive_flops}: the product of the
   spatial and reduction loop extents, two FLOPs per point. *)
let flops t =
  let out = Array.fold_left ( * ) 1 t.out_shape in
  let red = Array.fold_left ( * ) 1 t.reduction_doms in
  2 * out * red

(* Each accumulated term multiplies the input by one element of every
   weight group, so the variance budget 2/fan_in (Kaiming, with fan_in
   the reduction-space extent) is split evenly across the groups:
   prod_g var(w_g) = 2 / red. *)
let init_weights t rng =
  let red = float_of_int (Array.fold_left ( * ) 1 t.reduction_doms) in
  let n_groups = List.length t.weight_shapes in
  if n_groups = 0 then []
  else
    let scale = (2.0 /. Float.max 1.0 red) ** (1.0 /. (2.0 *. float_of_int n_groups)) in
    List.map (fun sh -> Tensor.rand_normal rng ~scale sh) t.weight_shapes

let shape_to_string sh =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int sh)) ^ "]"

let check_shape fn what actual expected =
  if actual <> expected then
    invalid_arg
      (Printf.sprintf "%s: %s has shape %s, expected %s" fn what (shape_to_string actual)
         (shape_to_string expected))

let check_arguments fn t ~input ~weights =
  check_shape fn "input" (Tensor.shape input) t.in_shape;
  let given = List.length weights and expected = List.length t.weight_shapes in
  if given <> expected then
    invalid_arg (Printf.sprintf "%s: %d weights given, expected %d" fn given expected);
  List.iteri
    (fun i (w, sh) -> check_shape fn (Printf.sprintf "weight %d" i) (Tensor.shape w) sh)
    (List.combine weights t.weight_shapes)

(* --- The compiled nest ------------------------------------------------------- *)

(* Row-major strides of a shape. *)
let row_major shape =
  let n = Array.length shape in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * shape.(i + 1)
  done;
  s

(* How the nest computes one input coordinate per output: an affine dim
   from a constant and a stride per output axis, a residue dim (a
   non-affine term over output iterators only) from its closure; both
   then move by a constant stride per reduction axis.  A closure dim
   evaluates its closure at every point. *)
type dim_kind = Affine | Residue | Closure

(* The loop nest [forward] and [backward] compile per call, and its
   per-output state. *)
type nest = {
  t : t;
  kind : dim_kind array;
  any_closure : bool;
  dim_const : int array;  (* per affine dim: its index at all-zero iterators, else 0 *)
  dim_out : int array array;  (* per affine dim: stride per output axis, else 0 *)
  dim_red : int array array;  (* per non-closure dim: stride per reduction axis *)
  clipper : clipper;
  in_strides : int array;
  x_steps : int array;  (* input offset step per reduction axis *)
  w_out : int array array;  (* per group: offset step per output axis *)
  w_steps : int array array;  (* per reduction axis: offset step per group *)
  w_limit : int array;  (* per group: its size minus its offset span over the whole box *)
  red_total : int;
  (* Per output: its position (mirrored into [env], where the reduction
     iterators rest at 0), each non-closure dim's index and each
     group's offset at the all-zero reduction point, and the clipped
     box. *)
  env : int array;
  pos : int array;
  base : int array;
  w_base : int array;
  rlo : int array;
  rext : int array;
  (* Scratch of the two nests. *)
  act : int array;
  coord : int array;
  woffs : int array;
  rv : int array;
  zeros : int array;
}

let nest t =
  let out_ids = t.spatial_ids and red_ids = t.reduction_ids and doms = t.reduction_doms in
  let m = Array.length out_ids and k = Array.length red_ids in
  let n_in = Array.length t.in_shape and n_w = Array.length t.weight_indexers in
  let in_strides = row_major t.in_shape in
  let kind =
    Array.of_list
      (List.map
         (fun e ->
           match split ~reductions:red_ids e with
           | { dynamic = true; _ } -> Closure
           | { residue = []; _ } -> Affine
           | _ -> Residue)
         t.op.Graph.op_input_exprs)
  in
  let dim_const = Array.make n_in 0 in
  let dim_out = Array.make n_in (Array.make m 0) and dim_red = Array.make n_in (Array.make k 0) in
  Array.iteri
    (fun i f ->
      match kind.(i) with
      | Affine ->
          let c0, d = strides f ~env_size:t.n_env (Array.append out_ids red_ids) in
          dim_const.(i) <- c0;
          dim_out.(i) <- Array.sub d 0 m;
          dim_red.(i) <- Array.sub d m k
      | Residue -> dim_red.(i) <- snd (strides f ~env_size:t.n_env red_ids)
      | Closure -> ())
    t.input_indexers;
  let x_steps =
    Array.init k (fun j ->
        let s = ref 0 in
        Array.iteri (fun i st -> s := !s + (st.(j) * in_strides.(i))) dim_red;
        !s)
  in
  let w_step q id =
    let ws = row_major (List.nth t.weight_shapes q) and s = ref 0 in
    Array.iteri (fun p id' -> if id' = id then s := !s + ws.(p)) t.weight_indexers.(q);
    !s
  in
  let w_steps = Array.init k (fun j -> Array.init n_w (fun q -> w_step q red_ids.(j))) in
  let w_limit =
    Array.init n_w (fun q ->
        let span = ref 0 in
        Array.iteri (fun j ws -> span := !span + (ws.(q) * (doms.(j) - 1))) w_steps;
        Array.fold_left ( * ) 1 (List.nth t.weight_shapes q) - !span)
  in
  {
    t;
    kind;
    any_closure = Array.mem Closure kind;
    dim_const;
    dim_out;
    dim_red;
    clipper =
      clipper ~doms ~extents:t.in_shape
        (Array.mapi (fun i r -> if kind.(i) = Closure then None else Some r) dim_red);
    in_strides;
    x_steps;
    w_out = Array.init n_w (fun q -> Array.map (w_step q) out_ids);
    w_steps;
    w_limit;
    red_total = Array.fold_left ( * ) 1 doms;
    env = Array.make (max 1 t.n_env) 0;
    pos = Array.make m 0;
    base = Array.make n_in 0;
    w_base = Array.make n_w 0;
    rlo = Array.make k 0;
    rext = Array.make k 0;
    act = Array.make k 0;
    coord = Array.make n_in 0;
    woffs = Array.make n_w 0;
    rv = Array.make (max 1 k) 0;
    zeros = Array.make n_w 0;
  }

(* [body flat_out] for every output in row-major order that [visit]
   accepts, with [base] and [w_base] set for it. *)
let each_output n ~visit body =
  let t = n.t in
  let m = Array.length n.pos and n_in = Array.length n.kind and n_w = Array.length n.w_base in
  Array.blit n.dim_const 0 n.base 0 n_in;
  Array.fill n.w_base 0 n_w 0;
  for flat_out = 0 to Array.fold_left ( * ) 1 t.out_shape - 1 do
    if visit flat_out then begin
      for i = 0 to n_in - 1 do
        if n.kind.(i) = Residue then n.base.(i) <- t.input_indexers.(i) n.env
      done;
      body flat_out
    end;
    (* The next output position, row-major, mirrored into [env]; the
       affine dims' indices and the weight offsets move with it (a
       carry takes back [extent * stride]). *)
    let a = ref (m - 1) in
    while !a >= 0 do
      let ax = !a in
      n.pos.(ax) <- n.pos.(ax) + 1;
      let steps = if n.pos.(ax) < t.out_shape.(ax) then 1 else 1 - t.out_shape.(ax) in
      if steps = 1 then a := -1
      else begin
        n.pos.(ax) <- 0;
        decr a
      end;
      n.env.(t.spatial_ids.(ax)) <- n.pos.(ax);
      for i = 0 to n_in - 1 do
        n.base.(i) <- n.base.(i) + (steps * n.dim_out.(i).(ax))
      done;
      for q = 0 to n_w - 1 do
        n.w_base.(q) <- n.w_base.(q) + (steps * n.w_out.(q).(ax))
      done
    done
  done

(* The unchecked nest over the box [rlo, rlo + rext):
   [inner xo n1 xs1 n0 xs0 st1 st0] runs the two innermost axes, [n1]
   rows of [n0] points from input offset [xo] and weight offsets
   [woffs]; a point steps the input by [xs0] and the weights by [st0], a
   row by [xs1] and [st1].  The axes outside them step an odometer over
   the running offsets, a carry takes back [extent * stride]. *)
let interior n inner =
  let n_in = Array.length n.base and n_w = Array.length n.w_base and k = Array.length n.rlo in
  let rext = n.rext and rv = n.rv and woffs = n.woffs in
  let xo = ref 0 in
  for i = 0 to n_in - 1 do
    xo := !xo + (n.base.(i) * n.in_strides.(i))
  done;
  Array.blit n.w_base 0 woffs 0 n_w;
  for j = 0 to k - 1 do
    xo := !xo + (n.rlo.(j) * n.x_steps.(j));
    for q = 0 to n_w - 1 do
      woffs.(q) <- woffs.(q) + (n.rlo.(j) * n.w_steps.(j).(q))
    done
  done;
  (* An axis of extent 1 takes no step, so only the others are walked:
     the inner two of them as the runs, the rest by the odometer. *)
  let act = n.act and na = ref 0 in
  for j = 0 to k - 1 do
    if rext.(j) > 1 then begin
      act.(!na) <- j;
      incr na
    end
  done;
  let na = !na in
  let j0 = if na >= 1 then act.(na - 1) else -1 and j1 = if na >= 2 then act.(na - 2) else -1 in
  let n0 = if j0 >= 0 then rext.(j0) else 1 and n1 = if j1 >= 0 then rext.(j1) else 1 in
  let xs0 = if j0 >= 0 then n.x_steps.(j0) else 0 and xs1 = if j1 >= 0 then n.x_steps.(j1) else 0 in
  let st0 = if j0 >= 0 then n.w_steps.(j0) else n.zeros in
  let st1 = if j1 >= 0 then n.w_steps.(j1) else n.zeros in
  let outer = ref 1 in
  for i = 0 to na - 3 do
    outer := !outer * rext.(act.(i))
  done;
  for _ = 1 to !outer do
    inner !xo n1 xs1 n0 xs0 st1 st0;
    let a = ref (na - 3) in
    while !a >= 0 do
      let ax = act.(!a) in
      let ws = n.w_steps.(ax) in
      rv.(ax) <- rv.(ax) + 1;
      xo := !xo + n.x_steps.(ax);
      for q = 0 to n_w - 1 do
        woffs.(q) <- woffs.(q) + ws.(q)
      done;
      if rv.(ax) < rext.(ax) then a := -1
      else begin
        rv.(ax) <- 0;
        xo := !xo - (rext.(ax) * n.x_steps.(ax));
        for q = 0 to n_w - 1 do
          woffs.(q) <- woffs.(q) - (rext.(ax) * ws.(q))
        done;
        decr a
      end
    done
  done

(* The guarded nest over the whole box: [point x] at every point whose
   input offset [x] reads inside, with the weight offsets in [woffs].
   Every reduction axis steps the odometer, which keeps the reduction
   iterators in [env] for the closure dims and returns them to 0 when
   it wraps. *)
let guarded n point =
  let t = n.t in
  let n_in = Array.length n.base and n_w = Array.length n.w_base and k = Array.length n.rlo in
  let coord = n.coord and woffs = n.woffs and rv = n.rv in
  let doms = t.reduction_doms in
  Array.blit n.base 0 coord 0 n_in;
  Array.blit n.w_base 0 woffs 0 n_w;
  for _ = 1 to n.red_total do
    let x = ref 0 and inside = ref true and i = ref 0 in
    while !inside && !i < n_in do
      let d = !i in
      let v = if n.kind.(d) = Closure then t.input_indexers.(d) n.env else coord.(d) in
      if v < 0 || v >= t.in_shape.(d) then inside := false else x := !x + (v * n.in_strides.(d));
      incr i
    done;
    if !inside then point !x;
    let a = ref (k - 1) in
    while !a >= 0 do
      let ax = !a in
      let ws = n.w_steps.(ax) in
      rv.(ax) <- rv.(ax) + 1;
      n.env.(t.reduction_ids.(ax)) <- rv.(ax);
      for d = 0 to n_in - 1 do
        coord.(d) <- coord.(d) + n.dim_red.(d).(ax)
      done;
      for q = 0 to n_w - 1 do
        woffs.(q) <- woffs.(q) + ws.(q)
      done;
      if rv.(ax) < doms.(ax) then a := -1
      else begin
        rv.(ax) <- 0;
        n.env.(t.reduction_ids.(ax)) <- 0;
        for d = 0 to n_in - 1 do
          coord.(d) <- coord.(d) - (doms.(ax) * n.dim_red.(d).(ax))
        done;
        for q = 0 to n_w - 1 do
          woffs.(q) <- woffs.(q) - (doms.(ax) * ws.(q))
        done;
        decr a
      end
    done
  done

(* One output's box: clip it ({!clip}); when no dim needs a closure and
   the weight windows fit over the whole box, run the clipped box
   unchecked, else the whole box guarded. *)
let unchecked n =
  let ok = ref (not n.any_closure) in
  for q = 0 to Array.length n.w_base - 1 do
    if n.w_base.(q) >= n.w_limit.(q) then ok := false
  done;
  !ok

let run_output n ~inner ~point =
  match clip n.clipper n.base ~lo:n.rlo ~ext:n.rext with
  | Empty -> ()
  | Inside when unchecked n -> interior n inner
  | Inside | Partial -> guarded n point

(* --- Forward ------------------------------------------------------------------- *)

(* The unchecked inner runs of the forward, over the nest's two inner
   axes (see [interior]): each point adds [x * w_0 * ... * w_last],
   the product built from the input value in group order, to output
   [o]'s running sum — what the per-point semantics does, sum for
   sum. *)
let fwd1 od o xd ~n1 ~xs1 ~n0 ~xs0 xo w0 o0 ~s01 ~s00 =
  let acc = ref od.(o) in
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) and a = ref (o0 + (r1 * s01)) in
    for _ = 1 to n0 do
      acc := !acc +. (Array.unsafe_get xd !x *. Array.unsafe_get w0 !a);
      x := !x + xs0;
      a := !a + s00
    done
  done;
  od.(o) <- !acc

let fwd2 od o xd ~n1 ~xs1 ~n0 ~xs0 xo w0 o0 ~s01 ~s00 w1 o1 ~s11 ~s10 =
  let acc = ref od.(o) in
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) and a = ref (o0 + (r1 * s01)) and b = ref (o1 + (r1 * s11)) in
    for _ = 1 to n0 do
      acc := !acc +. (Array.unsafe_get xd !x *. Array.unsafe_get w0 !a *. Array.unsafe_get w1 !b);
      x := !x + xs0;
      a := !a + s00;
      b := !b + s10
    done
  done;
  od.(o) <- !acc

(* Any other group count, with checked weight reads; [offs] is advanced
   in place and restored. *)
let fwd_n od o xd ~n1 ~xs1 ~n0 ~xs0 xo (wd : float array array) offs ~st1 ~st0 =
  let n_w = Array.length offs in
  let acc = ref od.(o) in
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) in
    for _ = 1 to n0 do
      let v = ref (Array.unsafe_get xd !x) in
      for q = 0 to n_w - 1 do
        v := !v *. wd.(q).(offs.(q));
        offs.(q) <- offs.(q) + st0.(q)
      done;
      acc := !acc +. !v;
      x := !x + xs0
    done;
    for q = 0 to n_w - 1 do
      offs.(q) <- offs.(q) + st1.(q) - (n0 * st0.(q))
    done
  done;
  for q = 0 to n_w - 1 do
    offs.(q) <- offs.(q) - (n1 * st1.(q))
  done;
  od.(o) <- !acc

(* Compiled per call; see the interface for the contract. *)
let forward t ~input ~weights =
  check_arguments "Reference.forward" t ~input ~weights;
  let wd = Array.of_list (List.map Tensor.unsafe_data weights) in
  let xd = Tensor.unsafe_data input in
  let out = Tensor.create t.out_shape in
  let od = Tensor.unsafe_data out in
  let n = nest t in
  let n_w = Array.length wd and woffs = n.woffs in
  let o = ref 0 in
  let inner xo n1 xs1 n0 xs0 st1 st0 =
    match n_w with
    | 1 -> fwd1 od !o xd ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) woffs.(0) ~s01:st1.(0) ~s00:st0.(0)
    | 2 ->
        fwd2 od !o xd ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) woffs.(0) ~s01:st1.(0) ~s00:st0.(0) wd.(1)
          woffs.(1) ~s11:st1.(1) ~s10:st0.(1)
    | _ -> fwd_n od !o xd ~n1 ~xs1 ~n0 ~xs0 xo wd woffs ~st1 ~st0
  in
  let point x =
    let v = ref xd.(x) in
    for q = 0 to n_w - 1 do
      v := !v *. wd.(q).(woffs.(q))
    done;
    od.(!o) <- od.(!o) +. !v
  in
  if n.red_total > 0 then
    each_output n
      ~visit:(fun _ -> true)
      (fun flat_out ->
        o := flat_out;
        run_output n ~inner ~point);
  out

(* --- Backward ------------------------------------------------------------------ *)

(* The unchecked inner runs of the backward, over the nest's two inner
   axes (see [interior]).  Each point does exactly what the per-point
   semantics does, product for product ([w_prod] starts from 1.0). *)
let back1 gi xd g ~n1 ~xs1 ~n0 ~xs0 xo w0 gw0 o0 ~s01 ~s00 =
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) and a = ref (o0 + (r1 * s01)) in
    for _ = 1 to n0 do
      let xi = !x and ai = !a in
      Array.unsafe_set gi xi (Array.unsafe_get gi xi +. (g *. (1.0 *. Array.unsafe_get w0 ai)));
      Array.unsafe_set gw0 ai (Array.unsafe_get gw0 ai +. (g *. Array.unsafe_get xd xi));
      x := xi + xs0;
      a := ai + s00
    done
  done

let back2 gi xd g ~n1 ~xs1 ~n0 ~xs0 xo w0 gw0 o0 ~s01 ~s00 w1 gw1 o1 ~s11 ~s10 =
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) and a = ref (o0 + (r1 * s01)) and b = ref (o1 + (r1 * s11)) in
    for _ = 1 to n0 do
      let xi = !x and ai = !a and bi = !b in
      let v0 = Array.unsafe_get w0 ai and v1 = Array.unsafe_get w1 bi in
      Array.unsafe_set gi xi (Array.unsafe_get gi xi +. (g *. (1.0 *. v0 *. v1)));
      let gx = g *. Array.unsafe_get xd xi in
      Array.unsafe_set gw0 ai (Array.unsafe_get gw0 ai +. (gx *. v1));
      Array.unsafe_set gw1 bi (Array.unsafe_get gw1 bi +. (gx *. v0));
      x := xi + xs0;
      a := ai + s00;
      b := bi + s10
    done
  done

(* One point of any weight-group count, at input offset [x] and weight
   offsets [offs], with checked reads and writes: [w_prod] from 1.0 in
   group order into the input gradient, then [(g * x) * w_g'] over
   [g' <> g] in ascending order into each weight gradient. *)
let back_point gi xd g x (wd : float array array) (gw : float array array) offs =
  let n_w = Array.length wd in
  let w_prod = ref 1.0 in
  for q = 0 to n_w - 1 do
    w_prod := !w_prod *. wd.(q).(offs.(q))
  done;
  gi.(x) <- gi.(x) +. (g *. !w_prod);
  let gx = g *. xd.(x) in
  for q = 0 to n_w - 1 do
    let others = ref gx in
    for q' = 0 to n_w - 1 do
      if q' <> q then others := !others *. wd.(q').(offs.(q'))
    done;
    gw.(q).(offs.(q)) <- gw.(q).(offs.(q)) +. !others
  done

(* [back_point] over the same two axes, for any other group count;
   [offs] is advanced in place and restored. *)
let back_n gi xd g ~n1 ~xs1 ~n0 ~xs0 xo wd gw offs ~st1 ~st0 =
  let n_w = Array.length offs in
  for r1 = 0 to n1 - 1 do
    let x = ref (xo + (r1 * xs1)) in
    for _ = 1 to n0 do
      back_point gi xd g !x wd gw offs;
      x := !x + xs0;
      for q = 0 to n_w - 1 do
        offs.(q) <- offs.(q) + st0.(q)
      done
    done;
    for q = 0 to n_w - 1 do
      offs.(q) <- offs.(q) + st1.(q) - (n0 * st0.(q))
    done
  done;
  for q = 0 to n_w - 1 do
    offs.(q) <- offs.(q) - (n1 * st1.(q))
  done

(* Compiled per call; see the interface for the contract.  Outputs whose
   [grad_out] is 0 are skipped. *)
let backward t ~input ~weights ~grad_out =
  check_arguments "Reference.backward" t ~input ~weights;
  check_shape "Reference.backward" "grad_out" (Tensor.shape grad_out) t.out_shape;
  let wd = Array.of_list (List.map Tensor.unsafe_data weights) in
  let xd = Tensor.unsafe_data input in
  let go = Tensor.unsafe_data grad_out in
  let grad_in = Tensor.create t.in_shape in
  let gi = Tensor.unsafe_data grad_in in
  let grad_ws = List.map Tensor.create t.weight_shapes in
  let gw = Array.of_list (List.map Tensor.unsafe_data grad_ws) in
  let n = nest t in
  let n_w = Array.length wd and woffs = n.woffs in
  let o = ref 0 in
  let inner xo n1 xs1 n0 xs0 st1 st0 =
    let g = go.(!o) in
    match n_w with
    | 1 -> back1 gi xd g ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) gw.(0) woffs.(0) ~s01:st1.(0) ~s00:st0.(0)
    | 2 ->
        back2 gi xd g ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) gw.(0) woffs.(0) ~s01:st1.(0) ~s00:st0.(0)
          wd.(1) gw.(1) woffs.(1) ~s11:st1.(1) ~s10:st0.(1)
    | _ -> back_n gi xd g ~n1 ~xs1 ~n0 ~xs0 xo wd gw woffs ~st1 ~st0
  in
  let point x = back_point gi xd go.(!o) x wd gw woffs in
  if n.red_total > 0 then
    each_output n
      ~visit:(fun flat_out -> go.(flat_out) <> 0.0)
      (fun flat_out ->
        o := flat_out;
        run_output n ~inner ~point);
  (grad_in, grad_ws)

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

(* --- Seeded mutants ------------------------------------------------------------ *)

type mutant = Clip_upper | Stride_sign | Dropped_residue | Short_run

let mutants = [ Clip_upper; Stride_sign; Dropped_residue; Short_run ]

let mutant_to_string = function
  | Clip_upper -> "clip-upper"
  | Stride_sign -> "stride-sign"
  | Dropped_residue -> "dropped-residue"
  | Short_run -> "short-run"

(* The armed mutant: [None] outside {!with_mutant}, so each hook below
   costs one branch. *)
let armed : mutant option ref = ref None

let with_mutant m f =
  armed := Some m;
  Fun.protect ~finally:(fun () -> armed := None) f

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
  let residue =
    match (!armed, residue) with Some Dropped_residue, _ :: rest -> rest | _ -> residue
  in
  { affine; residue; dynamic = dynamic <> [] }

let strides eval ~env_size ids =
  let probe = Array.make (max 1 env_size) 0 in
  let c0 = eval probe in
  let d =
    Array.map
      (fun id ->
        probe.(id) <- 1;
        let d = eval probe - c0 in
        probe.(id) <- 0;
        d)
      ids
  in
  (match !armed with
  | Some Stride_sign -> (
      match Array.find_index (( <> ) 0) d with Some i -> d.(i) <- -d.(i) | None -> ())
  | _ -> ());
  (c0, d)

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

(* Each axis is clipped to the [r] with [0 <= b + c * r <= top] for every
   dim that moves with it alone; the other dims are then range-tested
   over the clipped box. *)
let clip c base ~lo ~ext =
  let ceil_div a b = -Ast.fdiv (-a) b in
  let cut = match !armed with Some Clip_upper -> 1 | _ -> 0 in
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
    let l = max l lo.(j) and h = min (h - cut) (lo.(j) + ext.(j) - 1) in
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

(* --- The compiled nest ------------------------------------------------------- *)

(* Row-major strides of a shape. *)
let row_major shape =
  let n = Array.length shape in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * shape.(i + 1)
  done;
  s

(* How the nest computes one factor dim's index (window low subtracted)
   per output: an affine dim from a constant and a stride per output
   axis, a residue dim (non-affine terms over output iterators only)
   from its closure; both then move by a constant stride per reduction
   axis.  A closure dim evaluates its closure at every point. *)
type dim_kind = Affine | Residue | Closure

type dim = {
  kind : dim_kind;
  eval : int array -> int;  (* the index over the iterator environment *)
  const : int;  (* affine: the index at all-zero iterators *)
  out : int array;  (* affine: stride per output axis *)
  red : int array;  (* affine, residue: stride per reduction axis *)
  extent : int;
}

let affine_dim ~const ~out ~red ~extent =
  { kind = Affine; eval = (fun _ -> const); const; out; red; extent }

let expr_dim lookup ~out_ids ~red_ids ~env_size expr ~lo ~extent =
  let f = compile_expr lookup expr in
  let eval env = f env - lo in
  let m = Array.length out_ids and k = Array.length red_ids in
  match split ~reductions:red_ids expr with
  | { dynamic = true; _ } ->
      { kind = Closure; eval; const = 0; out = Array.make m 0; red = Array.make k 0; extent }
  | { residue = []; _ } ->
      let c0, d = strides eval ~env_size (Array.append out_ids red_ids) in
      { kind = Affine; eval; const = c0; out = Array.sub d 0 m; red = Array.sub d m k; extent }
  | _ ->
      let red = snd (strides eval ~env_size red_ids) in
      { kind = Residue; eval; const = 0; out = Array.make m 0; red; extent }

(* Up to this many outputs with one box share a walk of it. *)
let block = 4

(* A walk's private scratch: per output, each checked or residue dim's
   index and each factor's offset at the all-zero reduction point, and
   the clipped box; a box's runs and outer steps; the pending block.
   Nothing in it depends on the data, so a nest keeps one between
   calls. *)
type state = {
  env : int array;
  base : int array;
  rlo : int array;
  rext : int array;
  act : int array;  (* the walked box's axes of extent above 1, outermost first *)
  rv : int array;
  coord : int array;
  offs : int array;  (* per factor: its offset at the all-zero reduction point *)
  woffs : int array;
  zeros : int array;
  last : int array;  (* per checked dim: its index at the last clip *)
  mutable seen : bool;  (* [last], [rlo], [rext] and [verdict] are set *)
  mutable verdict : clip;
  mutable fresh : bool;  (* the last {!locate} clipped anew *)
  mutable next : int;  (* the flat output after the last one located *)
  step : int array;  (* per output axis [j], once [stepped.(j)]: each factor's offset *)
  stepped : bool array;  (*   step and each checked dim's, at a step of [j] *)
  mutable o : int;  (* the flat output being summed *)
  (* The walk of one box ({!walk}): [n1] rows of [n0] points, a point
     stepping factor 0 by [xs0] and the others by [st0], a row by [xs1]
     and [st1], at each of [outer] steps of the axes outside the rows;
     [xo] and [woffs] hold the offsets at the box's low corner, [wbase]
     the others' while [woffs] steps. *)
  mutable n0 : int;
  mutable n1 : int;
  mutable xs0 : int;
  mutable xs1 : int;
  mutable st0 : int array;
  mutable st1 : int array;
  mutable outer : int;
  mutable xo : int;
  wbase : int array;
  (* The pending block: [nb] located [Inside] outputs whose box is
     [blo, blo + bext), slot [i] being flat output [bo.(i)] with factor
     0's offset [bx.(i)] and weight [q]'s [bw.(q * block + i)] at the
     all-zero reduction point. *)
  blo : int array;
  bext : int array;
  bo : int array;
  bx : int array;
  bw : int array;
  mutable nb : int;
  (* The extents [tab] of the last {!walk} once [walked], and its
     outer steps. *)
  tab : int array;
  mutable walked : bool;
  mutable ox : int array;
  mutable ow : int array;
}

(* One contraction compiled: its factors' dims, factor-major, and what
   the per-output walk needs of them.  Factor 0 is summed against the
   others as [x] against weights [w_0 .. w_last]. *)
type nest = {
  dims : dim array;
  factor : int array;  (* per dim: its factor *)
  fstride : int array;  (* per dim: its row-major stride in its factor *)
  n_factors : int;
  listed : bool array;  (* per dim: in the clip set *)
  extents : int array;  (* per dim: its window extent *)
  consts : int array;  (* per dim: its index at all-zero iterators *)
  nz_dim : int array;  (* the non-zero output strides of the checked affine dims: *)
  nz_axis : int array;  (*   dim, output axis and stride *)
  nz_stride : int array;
  m : int;  (* output axes *)
  f_const : int array;  (* per factor: its offset at all-zero iterators *)
  fz_factor : int array;  (* the non-zero output strides of the factors' *)
  fz_axis : int array;  (*   affine parts: factor, output axis and stride *)
  fz_stride : int array;
  env_dims : int array;  (* the residue dims *)
  closures : int array;  (* the closure dims *)
  checked : int array;  (* the listed dims that are not closure dims *)
  any_closure : bool;
  out_ids : int array;
  red_ids : int array;
  red_doms : int array;
  red_total : int;
  env_size : int;
  clipper : clipper;
  x_steps : int array;  (* per reduction axis: factor 0's offset step *)
  w_steps : int array array;  (* per reduction axis: each other factor's offset step *)
  spare : state option Atomic.t;  (* a forward's scratch, kept for the next call *)
}

let nest ~out_ids ~red_ids ~red_doms ~env_size factors ~clips =
  let dims = Array.concat (Array.to_list factors) in
  let nd = Array.length dims and k = Array.length red_doms in
  let factor =
    Array.concat (Array.to_list (Array.mapi (fun f ds -> Array.map (fun _ -> f) ds) factors))
  in
  let extents = Array.map (fun d -> d.extent) dims in
  let fstride =
    Array.concat
      (Array.to_list (Array.map (fun ds -> row_major (Array.map (fun d -> d.extent) ds)) factors))
  in
  let listed = Array.concat (Array.to_list clips) in
  if Array.length listed <> nd then invalid_arg "Reference.nest: one clip flag per dim";
  (* Under a mutant every dim is clipped, so a mutated index is never
     read unchecked. *)
  let listed = match !armed with None -> listed | Some _ -> Array.map (fun _ -> true) listed in
  let checked d = listed.(d) && dims.(d).kind <> Closure in
  let affine d = dims.(d).kind = Affine in
  let m = Array.fold_left (fun m d -> max m (Array.length d.out)) 0 dims in
  let n_w = Array.length factors - 1 in
  let sum_over f g =
    let s = ref 0 in
    Array.iteri (fun d dim -> if factor.(d) = f then s := !s + g d dim) dims;
    !s
  in
  (* The non-zero entries (row, output axis, stride) of a table of
     strides per output axis. *)
  let nonzero table =
    List.concat
      (List.mapi
         (fun g row ->
           List.filter_map
             (fun a -> if row.(a) = 0 then None else Some (g, a, row.(a)))
             (List.init m Fun.id))
         (Array.to_list table))
  in
  let nz =
    List.filter (fun (d, _, _) -> checked d && affine d) (nonzero (Array.map (fun d -> d.out) dims))
  in
  let f_out =
    Array.init (Array.length factors) (fun f ->
        Array.init m (fun a ->
            sum_over f (fun d dim -> if affine d then dim.out.(a) * fstride.(d) else 0)))
  in
  let fz = nonzero f_out in
  let pick l f = Array.of_list (List.map f l) in
  let indices p = Array.of_list (List.filter p (List.init nd Fun.id)) in
  let step j f = sum_over f (fun d dim -> dim.red.(j) * fstride.(d)) in
  {
    dims;
    factor;
    fstride;
    n_factors = Array.length factors;
    listed;
    extents;
    consts = Array.map (fun d -> d.const) dims;
    nz_dim = pick nz (fun (d, _, _) -> d);
    nz_axis = pick nz (fun (_, a, _) -> a);
    nz_stride = pick nz (fun (_, _, s) -> s);
    m;
    f_const =
      Array.init (Array.length factors) (fun f ->
          sum_over f (fun d dim -> if affine d then dim.const * fstride.(d) else 0));
    fz_factor = pick fz (fun (f, _, _) -> f);
    fz_axis = pick fz (fun (_, a, _) -> a);
    fz_stride = pick fz (fun (_, _, s) -> s);
    env_dims = indices (fun d -> dims.(d).kind = Residue);
    closures = indices (fun d -> dims.(d).kind = Closure);
    checked = indices checked;
    any_closure = Array.exists (fun d -> d.kind = Closure) dims;
    out_ids;
    red_ids;
    red_doms;
    red_total = Array.fold_left ( * ) 1 red_doms;
    env_size;
    clipper =
      clipper ~doms:red_doms ~extents
        (Array.mapi (fun i d -> if checked i then Some d.red else None) dims);
    x_steps = Array.init k (fun j -> step j 0);
    w_steps = Array.init k (fun j -> Array.init n_w (fun q -> step j (q + 1)));
    spare = Atomic.make None;
  }

let exact n = (not n.any_closure) && Array.length n.clipper.cl_others = 0

let state n =
  let nd = Array.length n.dims and k = Array.length n.red_doms and n_w = n.n_factors - 1 in
  let zeros = Array.make (max 0 n_w) 0 in
  {
    env = Array.make (max 1 n.env_size) 0;
    base = Array.make nd 0;
    rlo = Array.make k 0;
    rext = Array.make k 0;
    act = Array.make k 0;
    rv = Array.make (max 1 k) 0;
    coord = Array.make nd 0;
    offs = Array.make n.n_factors 0;
    woffs = Array.make (max 0 n_w) 0;
    zeros;
    last = Array.make (Array.length n.checked) 0;
    seen = false;
    verdict = Inside;
    fresh = true;
    next = -1;
    step = Array.make (n.m * (n.n_factors + Array.length n.checked)) 0;
    stepped = Array.make n.m false;
    o = 0;
    n0 = 1;
    n1 = 1;
    xs0 = 0;
    xs1 = 0;
    st0 = zeros;
    st1 = zeros;
    outer = 1;
    xo = 0;
    wbase = Array.make (max 0 n_w) 0;
    blo = Array.make k 0;
    bext = Array.make k 0;
    bo = Array.make block 0;
    bx = Array.make block 0;
    bw = Array.make (max 0 n_w * block) 0;
    nb = 0;
    tab = Array.make k 0;
    walked = false;
    ox = [||];
    ow = [||];
  }

(* The output at [pos]: each checked dim's index and each factor's
   offset at the all-zero reduction point, then its box clipped
   ({!clip}).  Only residue dims, and closure dims later, read [env]. *)
let locate n s pos w =
  let base = s.base and offs = s.offs and nf = n.n_factors and checked = n.checked in
  let width = nf + Array.length checked in
  (* From the last output, [pos] stepped axis [j] and reset the axes
     after it: a step that depends on [j] alone. *)
  let j = ref (-1) in
  if w = s.next && Array.length n.env_dims = 0 then begin
    j := n.m - 1;
    while !j >= 0 && pos.(!j) = 0 do
      decr j
    done
  end;
  let j = !j in
  if j >= 0 && s.stepped.(j) then begin
    let row = j * width in
    for f = 0 to nf - 1 do
      offs.(f) <- offs.(f) + s.step.(row + f)
    done;
    for i = 0 to Array.length checked - 1 do
      let d = checked.(i) in
      base.(d) <- base.(d) + s.step.(row + nf + i)
    done
  end
  else begin
    let row = j * width in
    if j >= 0 then begin
      for f = 0 to nf - 1 do
        s.step.(row + f) <- -offs.(f)
      done;
      for i = 0 to Array.length checked - 1 do
        s.step.(row + nf + i) <- -base.(checked.(i))
      done
    end;
    for f = 0 to nf - 1 do
      offs.(f) <- n.f_const.(f)
    done;
    for t = 0 to Array.length n.fz_factor - 1 do
      let f = n.fz_factor.(t) in
      offs.(f) <- offs.(f) + (n.fz_stride.(t) * pos.(n.fz_axis.(t)))
    done;
    for i = 0 to Array.length checked - 1 do
      let d = checked.(i) in
      base.(d) <- n.consts.(d)
    done;
    for t = 0 to Array.length n.nz_dim - 1 do
      let d = n.nz_dim.(t) in
      base.(d) <- base.(d) + (n.nz_stride.(t) * pos.(n.nz_axis.(t)))
    done;
    if j >= 0 then begin
      for f = 0 to nf - 1 do
        s.step.(row + f) <- s.step.(row + f) + offs.(f)
      done;
      for i = 0 to Array.length checked - 1 do
        s.step.(row + nf + i) <- s.step.(row + nf + i) + base.(checked.(i))
      done;
      s.stepped.(j) <- true
    end
  end;
  s.next <- w + 1;
  if n.any_closure || Array.length n.env_dims > 0 then begin
    for a = 0 to Array.length n.out_ids - 1 do
      s.env.(n.out_ids.(a)) <- pos.(a)
    done;
    for e = 0 to Array.length n.env_dims - 1 do
      let d = n.env_dims.(e) in
      let v = n.dims.(d).eval s.env in
      base.(d) <- v;
      offs.(n.factor.(d)) <- offs.(n.factor.(d)) + (v * n.fstride.(d))
    done
  end;
  (* The clip reads only the checked dims' indices: while they repeat,
     so do the box and the verdict. *)
  let same = ref s.seen in
  for i = 0 to Array.length n.checked - 1 do
    let d = n.checked.(i) in
    if base.(d) <> s.last.(i) then begin
      same := false;
      s.last.(i) <- base.(d)
    end
  done;
  s.fresh <- not !same;
  if not !same then begin
    s.verdict <- clip n.clipper base ~lo:s.rlo ~ext:s.rext;
    s.seen <- true
  end;
  s.verdict

(* Each factor's offset step from the all-zero reduction point to [lo]:
   factor 0's in [xo], the others' in [woffs]. *)
let corner n s lo =
  let n_w = n.n_factors - 1 and woffs = s.woffs in
  s.xo <- 0;
  for q = 0 to n_w - 1 do
    woffs.(q) <- 0
  done;
  for j = 0 to Array.length lo - 1 do
    let r = lo.(j) in
    if r <> 0 then begin
      s.xo <- s.xo + (r * n.x_steps.(j));
      for q = 0 to n_w - 1 do
        woffs.(q) <- woffs.(q) + (r * n.w_steps.(j).(q))
      done
    end
  done

(* Each factor's offset at the located output's reduction point [lo]:
   factor 0's in [xo], the others' in [woffs].  A closure dim adds
   nothing here; [guarded] adds it per point. *)
let origin n s lo =
  corner n s lo;
  s.xo <- s.xo + s.offs.(0);
  for q = 0 to n.n_factors - 2 do
    s.woffs.(q) <- s.woffs.(q) + s.offs.(q + 1)
  done

(* The walk of a box of extents [ext] into [s]'s run fields, kept while
   the next box has the same extents: an axis of extent 1 takes no
   step, so only the others are walked, the inner two as rows of runs
   and the rest, the outer axes, unrolled in row-major order into a
   table: for each outer step [t], factor 0's offset from the box's low
   corner in [ox.(t)] and weight [q]'s in [ow.(q * outer + t)]. *)
let walk n s ext =
  let same = ref s.walked and j = ref 0 in
  while !same && !j < Array.length ext do
    same := ext.(!j) = s.tab.(!j);
    incr j
  done;
  if not !same then begin
    let act = s.act and na = ref 0 in
    for j = 0 to Array.length ext - 1 do
      if ext.(j) > 1 then begin
        act.(!na) <- j;
        incr na
      end
    done;
    let na = !na in
    let j0 = if na >= 1 then act.(na - 1) else -1 and j1 = if na >= 2 then act.(na - 2) else -1 in
    let n0 = if j0 >= 0 then ext.(j0) else 1 in
    s.n0 <- (match !armed with Some Short_run -> n0 - 1 | _ -> n0);
    s.n1 <- (if j1 >= 0 then ext.(j1) else 1);
    s.xs0 <- (if j0 >= 0 then n.x_steps.(j0) else 0);
    s.xs1 <- (if j1 >= 0 then n.x_steps.(j1) else 0);
    s.st0 <- (if j0 >= 0 then n.w_steps.(j0) else s.zeros);
    s.st1 <- (if j1 >= 0 then n.w_steps.(j1) else s.zeros);
    let outer = ref 1 in
    for i = 0 to na - 3 do
      outer := !outer * ext.(act.(i))
    done;
    let outer = !outer and n_w = n.n_factors - 1 in
    s.outer <- outer;
    if Array.length s.ox < outer then begin
      s.ox <- Array.make outer 0;
      s.ow <- Array.make (n_w * outer) 0
    end;
    (* An odometer over the outer axes, from the all-zero point, where
       [rv] rests, back to it; [wbase] holds the running weight
       offsets. *)
    let rv = s.rv and wb = s.wbase and x = ref 0 in
    for q = 0 to n_w - 1 do
      wb.(q) <- 0
    done;
    for t = 0 to outer - 1 do
      s.ox.(t) <- !x;
      for q = 0 to n_w - 1 do
        s.ow.((q * outer) + t) <- wb.(q)
      done;
      let a = ref (na - 3) in
      while !a >= 0 do
        let ax = act.(!a) in
        let ws = n.w_steps.(ax) and e = ext.(ax) in
        rv.(ax) <- rv.(ax) + 1;
        x := !x + n.x_steps.(ax);
        for q = 0 to n_w - 1 do
          wb.(q) <- wb.(q) + ws.(q)
        done;
        if rv.(ax) < e then a := -1
        else begin
          rv.(ax) <- 0;
          x := !x - (e * n.x_steps.(ax));
          for q = 0 to n_w - 1 do
            wb.(q) <- wb.(q) - (e * ws.(q))
          done;
          decr a
        end
      done
    done;
    for j = 0 to Array.length ext - 1 do
      s.tab.(j) <- ext.(j)
    done;
    s.walked <- true
  end

(* The unchecked nest over the box of the last {!walk} from factor 0's
   offset [s.xo] and the others' [s.woffs] at its low corner:
   [inner xo n1 xs1 n0 xs0 st1 st0] runs the two innermost axes, [n1]
   rows of [n0] points from factor 0's offset [xo] and the other
   factors' offsets [woffs], once per outer step. *)
let interior n s inner =
  let outer = s.outer in
  if outer = 1 then inner s.xo s.n1 s.xs1 s.n0 s.xs0 s.st1 s.st0
  else begin
    let n_w = n.n_factors - 1 and woffs = s.woffs and wbase = s.wbase and x0 = s.xo in
    let n1 = s.n1 and xs1 = s.xs1 and n0 = s.n0 and xs0 = s.xs0 and st1 = s.st1 and st0 = s.st0 in
    let ox = s.ox and ow = s.ow in
    for q = 0 to n_w - 1 do
      wbase.(q) <- woffs.(q)
    done;
    for t = 0 to outer - 1 do
      for q = 0 to n_w - 1 do
        woffs.(q) <- wbase.(q) + ow.((q * outer) + t)
      done;
      inner (x0 + ox.(t)) n1 xs1 n0 xs0 st1 st0
    done
  end

(* The guarded nest over the whole box: [point x] at every point where
   each listed dim reads inside its window, with factor 0's offset [x]
   and the others' in [woffs].  The offsets and the listed dims'
   indices step with the odometer; a closure dim is evaluated at every
   point, over the reduction iterators the odometer keeps in [env] and
   returns to 0 when it wraps. *)
let guarded n s point =
  let n_w = n.n_factors - 1 and k = Array.length n.red_doms in
  let coord = s.coord and woffs = s.woffs and rv = s.rv and env = s.env in
  let checked = n.checked and closures = n.closures in
  Array.blit s.base 0 coord 0 (Array.length coord);
  (* The odometer rests at the all-zero point between walks. *)
  origin n s rv;
  let xo = ref s.xo in
  for _ = 1 to n.red_total do
    let inside = ref true and i = ref 0 in
    while !inside && !i < Array.length checked do
      let d = checked.(!i) in
      let v = coord.(d) in
      if v < 0 || v >= n.extents.(d) then inside := false;
      incr i
    done;
    if !inside then begin
      if not n.any_closure then point !xo
      else begin
        (* Each closure dim's index joins its factor's offset for this
           point only. *)
        let x = ref !xo in
        let i = ref 0 in
        while !inside && !i < Array.length closures do
          let d = closures.(!i) in
          let v = n.dims.(d).eval env in
          coord.(d) <- v;
          if n.listed.(d) && (v < 0 || v >= n.extents.(d)) then inside := false;
          incr i
        done;
        if !inside then begin
          for i = 0 to Array.length closures - 1 do
            let d = closures.(i) in
            let c = coord.(d) * n.fstride.(d) and f = n.factor.(d) in
            if f = 0 then x := !x + c else woffs.(f - 1) <- woffs.(f - 1) + c
          done;
          point !x;
          for i = 0 to Array.length closures - 1 do
            let d = closures.(i) and f = n.factor.(closures.(i)) in
            if f > 0 then woffs.(f - 1) <- woffs.(f - 1) - (coord.(d) * n.fstride.(d))
          done
        end
      end
    end;
    let a = ref (k - 1) in
    while !a >= 0 do
      let ax = !a in
      let ws = n.w_steps.(ax) in
      rv.(ax) <- rv.(ax) + 1;
      if n.any_closure then env.(n.red_ids.(ax)) <- rv.(ax);
      xo := !xo + n.x_steps.(ax);
      for q = 0 to n_w - 1 do
        woffs.(q) <- woffs.(q) + ws.(q)
      done;
      for i = 0 to Array.length checked - 1 do
        let d = checked.(i) in
        coord.(d) <- coord.(d) + n.dims.(d).red.(ax)
      done;
      if rv.(ax) < n.red_doms.(ax) then a := -1
      else begin
        rv.(ax) <- 0;
        if n.any_closure then env.(n.red_ids.(ax)) <- 0;
        let dom = n.red_doms.(ax) in
        xo := !xo - (dom * n.x_steps.(ax));
        for q = 0 to n_w - 1 do
          woffs.(q) <- woffs.(q) - (dom * ws.(q))
        done;
        for i = 0 to Array.length checked - 1 do
          let d = checked.(i) in
          coord.(d) <- coord.(d) - (dom * n.dims.(d).red.(ax))
        done;
        decr a
      end
    done
  done

(* One output: clip its box; an [Inside] box of a nest with no closure
   dim runs unchecked, anything else [guarded ()]. *)
let run_output n s ~inner ~guarded pos w =
  s.o <- w;
  match locate n s pos w with
  | Empty -> ()
  | Inside when not n.any_closure ->
      walk n s s.rext;
      origin n s s.rlo;
      interior n s inner
  | Inside | Partial -> guarded ()

(* [f pos w] for every position [pos] of a box of dims [shape], in
   row-major order, [w] its flat offset. *)
let each_position shape f =
  let m = Array.length shape in
  let pos = Array.make m 0 in
  for w = 0 to Array.fold_left ( * ) 1 shape - 1 do
    f pos w;
    let a = ref (m - 1) in
    while !a >= 0 do
      let ax = !a in
      pos.(ax) <- pos.(ax) + 1;
      if pos.(ax) < shape.(ax) then a := -1
      else begin
        pos.(ax) <- 0;
        decr a
      end
    done
  done

(* --- The operator -------------------------------------------------------------- *)

type t = {
  op : Graph.operator;
  out_shape : int array;
  in_shape : int array;
  weight_shapes : int array list;
  nest : nest;
      (* The input, then each weight group.  Every input dim is listed: the
         reference has no certificate.  A weight dim is a bare iterator
         over its own domain, so it never leaves its window. *)
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
  let ids = List.map (fun it -> it.Ast.id) in
  let out_ids = Array.of_list (ids op.Graph.op_output_iters) in
  let red_ids = Array.of_list (ids op.Graph.op_reductions) in
  let env_size = 1 + Array.fold_left max (-1) (Array.append out_ids red_ids) in
  let red_doms =
    Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions)
  in
  let dim expr extent = expr_dim lookup ~out_ids ~red_ids ~env_size expr ~lo:0 ~extent in
  let group exprs shape = Array.of_list (List.map2 dim exprs (Array.to_list shape)) in
  let factors =
    Array.of_list
      (group op.Graph.op_input_exprs in_shape
      :: List.map2 (fun grp -> group (List.map Ast.iter grp)) op.Graph.op_weights weight_shapes)
  in
  {
    op;
    out_shape;
    in_shape;
    weight_shapes;
    nest =
      nest ~out_ids ~red_ids ~red_doms ~env_size factors
        ~clips:(Array.mapi (fun f dims -> Array.map (fun _ -> f = 0) dims) factors);
  }

let output_shape t = Array.copy t.out_shape
let input_shape t = Array.copy t.in_shape
let weight_shapes t = List.map Array.copy t.weight_shapes
let operator t = t.op

(* Same convention as {!Pgraph.Flops.naive_flops}: the product of the
   spatial and reduction loop extents, two FLOPs per point. *)
let flops t =
  let out = Array.fold_left ( * ) 1 t.out_shape in
  let red = t.nest.red_total in
  2 * out * red

(* Each accumulated term multiplies the input by one element of every
   weight group, so the variance budget 2/fan_in (Kaiming, with fan_in
   the reduction-space extent) is split evenly across the groups:
   prod_g var(w_g) = 2 / red. *)
let init_weights t rng =
  let red = float_of_int t.nest.red_total in
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

let check_arguments fn ~input_shape ~weight_shapes ~input ~weights =
  check_shape fn "input" (Tensor.shape input) input_shape;
  let given = List.length weights and expected = List.length weight_shapes in
  if given <> expected then
    invalid_arg (Printf.sprintf "%s: %d weights given, expected %d" fn given expected);
  List.iteri
    (fun i (w, sh) -> check_shape fn (Printf.sprintf "weight %d" i) (Tensor.shape w) sh)
    (List.combine weights weight_shapes)

(* --- Forward ------------------------------------------------------------------- *)

(* The unchecked inner runs of the forward, over the nest's two inner
   axes (see [interior]): each point adds [x * w_0 * ... * w_last],
   the product built from factor 0's value in factor order, to output
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

(* Any other factor count, with checked reads of the other factors;
   [offs] is advanced in place and restored. *)
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

(* The blocked kernels: one walk of the pending block's box, its rows
   and outer steps from {!walk}, summing its four outputs at once, for
   0, 1 and 2 weight factors.  Slot [i] keeps its own accumulator, from
   its own output's [+0.0], and its own offsets ([x_i], [a_i], [b_i]),
   to which the walk's offsets from the box's low corner are added; it
   adds the points in the order the per-output runs do, and forms the
   same products, so its sum is theirs bit for bit.  A slot padded with
   a copy of the last one writes that output's sum twice.  No call
   inside, so the accumulators stay in registers. *)
let blk0 s od xd =
  let x0 = s.bx.(0) and x1 = s.bx.(1) and x2 = s.bx.(2) and x3 = s.bx.(3) in
  let n0 = s.n0 and n1 = s.n1 and xs0 = s.xs0 and xs1 = s.xs1 and ox = s.ox and cx = s.xo in
  let c0 = ref od.(s.bo.(0)) and c1 = ref od.(s.bo.(1)) in
  let c2 = ref od.(s.bo.(2)) and c3 = ref od.(s.bo.(3)) in
  for t = 0 to s.outer - 1 do
    for r1 = 0 to n1 - 1 do
      let rx = cx + Array.unsafe_get ox t + (r1 * xs1) in
      let p0 = ref (x0 + rx) and p1 = ref (x1 + rx) and p2 = ref (x2 + rx) and p3 = ref (x3 + rx) in
      for _ = 1 to n0 do
        c0 := !c0 +. Array.unsafe_get xd !p0;
        c1 := !c1 +. Array.unsafe_get xd !p1;
        c2 := !c2 +. Array.unsafe_get xd !p2;
        c3 := !c3 +. Array.unsafe_get xd !p3;
        p0 := !p0 + xs0;
        p1 := !p1 + xs0;
        p2 := !p2 + xs0;
        p3 := !p3 + xs0
      done
    done
  done;
  od.(s.bo.(0)) <- !c0;
  od.(s.bo.(1)) <- !c1;
  od.(s.bo.(2)) <- !c2;
  od.(s.bo.(3)) <- !c3

let blk1 s od xd w0 =
  let x0 = s.bx.(0) and x1 = s.bx.(1) and x2 = s.bx.(2) and x3 = s.bx.(3) in
  let a0 = s.bw.(0) and a1 = s.bw.(1) and a2 = s.bw.(2) and a3 = s.bw.(3) in
  let n0 = s.n0 and n1 = s.n1 and xs0 = s.xs0 and xs1 = s.xs1 in
  let s00 = s.st0.(0) and s01 = s.st1.(0) and ox = s.ox and ow = s.ow in
  let cx = s.xo and ca = s.woffs.(0) in
  let c0 = ref od.(s.bo.(0)) and c1 = ref od.(s.bo.(1)) in
  let c2 = ref od.(s.bo.(2)) and c3 = ref od.(s.bo.(3)) in
  for t = 0 to s.outer - 1 do
    for r1 = 0 to n1 - 1 do
      let rx = cx + Array.unsafe_get ox t + (r1 * xs1) in
      let ra = ca + Array.unsafe_get ow t + (r1 * s01) in
      let p0 = ref (x0 + rx) and p1 = ref (x1 + rx) and p2 = ref (x2 + rx) and p3 = ref (x3 + rx) in
      let q0 = ref (a0 + ra) and q1 = ref (a1 + ra) and q2 = ref (a2 + ra) and q3 = ref (a3 + ra) in
      for _ = 1 to n0 do
        c0 := !c0 +. (Array.unsafe_get xd !p0 *. Array.unsafe_get w0 !q0);
        c1 := !c1 +. (Array.unsafe_get xd !p1 *. Array.unsafe_get w0 !q1);
        c2 := !c2 +. (Array.unsafe_get xd !p2 *. Array.unsafe_get w0 !q2);
        c3 := !c3 +. (Array.unsafe_get xd !p3 *. Array.unsafe_get w0 !q3);
        p0 := !p0 + xs0;
        p1 := !p1 + xs0;
        p2 := !p2 + xs0;
        p3 := !p3 + xs0;
        q0 := !q0 + s00;
        q1 := !q1 + s00;
        q2 := !q2 + s00;
        q3 := !q3 + s00
      done
    done
  done;
  od.(s.bo.(0)) <- !c0;
  od.(s.bo.(1)) <- !c1;
  od.(s.bo.(2)) <- !c2;
  od.(s.bo.(3)) <- !c3

(* [blk1] where the four slots read one weight element per point (the
   outputs of a row of a convolution) or one input element (the outputs
   along a weight-only axis): one load of it per point. *)
let blk1_one_w s od xd w0 =
  let x0 = s.bx.(0) and x1 = s.bx.(1) and x2 = s.bx.(2) and x3 = s.bx.(3) and a0 = s.bw.(0) in
  let n0 = s.n0 and n1 = s.n1 and xs0 = s.xs0 and xs1 = s.xs1 in
  let s00 = s.st0.(0) and s01 = s.st1.(0) and ox = s.ox and ow = s.ow in
  let cx = s.xo and ca = s.woffs.(0) in
  let c0 = ref od.(s.bo.(0)) and c1 = ref od.(s.bo.(1)) in
  let c2 = ref od.(s.bo.(2)) and c3 = ref od.(s.bo.(3)) in
  for t = 0 to s.outer - 1 do
    for r1 = 0 to n1 - 1 do
      let rx = cx + Array.unsafe_get ox t + (r1 * xs1) in
      let p0 = ref (x0 + rx) and p1 = ref (x1 + rx) and p2 = ref (x2 + rx) and p3 = ref (x3 + rx) in
      let q = ref (a0 + ca + Array.unsafe_get ow t + (r1 * s01)) in
      for _ = 1 to n0 do
        let v = Array.unsafe_get w0 !q in
        c0 := !c0 +. (Array.unsafe_get xd !p0 *. v);
        c1 := !c1 +. (Array.unsafe_get xd !p1 *. v);
        c2 := !c2 +. (Array.unsafe_get xd !p2 *. v);
        c3 := !c3 +. (Array.unsafe_get xd !p3 *. v);
        p0 := !p0 + xs0;
        p1 := !p1 + xs0;
        p2 := !p2 + xs0;
        p3 := !p3 + xs0;
        q := !q + s00
      done
    done
  done;
  od.(s.bo.(0)) <- !c0;
  od.(s.bo.(1)) <- !c1;
  od.(s.bo.(2)) <- !c2;
  od.(s.bo.(3)) <- !c3

let blk1_one_x s od xd w0 =
  let x0 = s.bx.(0) and a0 = s.bw.(0) and a1 = s.bw.(1) and a2 = s.bw.(2) and a3 = s.bw.(3) in
  let n0 = s.n0 and n1 = s.n1 and xs0 = s.xs0 and xs1 = s.xs1 in
  let s00 = s.st0.(0) and s01 = s.st1.(0) and ox = s.ox and ow = s.ow in
  let cx = s.xo and ca = s.woffs.(0) in
  let c0 = ref od.(s.bo.(0)) and c1 = ref od.(s.bo.(1)) in
  let c2 = ref od.(s.bo.(2)) and c3 = ref od.(s.bo.(3)) in
  for t = 0 to s.outer - 1 do
    for r1 = 0 to n1 - 1 do
      let ra = ca + Array.unsafe_get ow t + (r1 * s01) in
      let p = ref (x0 + cx + Array.unsafe_get ox t + (r1 * xs1)) in
      let q0 = ref (a0 + ra) and q1 = ref (a1 + ra) and q2 = ref (a2 + ra) and q3 = ref (a3 + ra) in
      for _ = 1 to n0 do
        let v = Array.unsafe_get xd !p in
        c0 := !c0 +. (v *. Array.unsafe_get w0 !q0);
        c1 := !c1 +. (v *. Array.unsafe_get w0 !q1);
        c2 := !c2 +. (v *. Array.unsafe_get w0 !q2);
        c3 := !c3 +. (v *. Array.unsafe_get w0 !q3);
        p := !p + xs0;
        q0 := !q0 + s00;
        q1 := !q1 + s00;
        q2 := !q2 + s00;
        q3 := !q3 + s00
      done
    done
  done;
  od.(s.bo.(0)) <- !c0;
  od.(s.bo.(1)) <- !c1;
  od.(s.bo.(2)) <- !c2;
  od.(s.bo.(3)) <- !c3

let blk2 s od xd w0 w1 =
  let x0 = s.bx.(0) and x1 = s.bx.(1) and x2 = s.bx.(2) and x3 = s.bx.(3) in
  let a0 = s.bw.(0) and a1 = s.bw.(1) and a2 = s.bw.(2) and a3 = s.bw.(3) in
  let b0 = s.bw.(block) and b1 = s.bw.(block + 1) in
  let b2 = s.bw.(block + 2) and b3 = s.bw.(block + 3) in
  let n0 = s.n0 and n1 = s.n1 and xs0 = s.xs0 and xs1 = s.xs1 in
  let s00 = s.st0.(0) and s01 = s.st1.(0) and s10 = s.st0.(1) and s11 = s.st1.(1) in
  let outer = s.outer and ox = s.ox and ow = s.ow in
  let cx = s.xo and ca = s.woffs.(0) and cb = s.woffs.(1) in
  let c0 = ref od.(s.bo.(0)) and c1 = ref od.(s.bo.(1)) in
  let c2 = ref od.(s.bo.(2)) and c3 = ref od.(s.bo.(3)) in
  for t = 0 to outer - 1 do
    for r1 = 0 to n1 - 1 do
      let rx = cx + Array.unsafe_get ox t + (r1 * xs1) in
      let ra = ca + Array.unsafe_get ow t + (r1 * s01) in
      let rb = cb + Array.unsafe_get ow (outer + t) + (r1 * s11) in
      let p0 = ref (x0 + rx) and p1 = ref (x1 + rx) and p2 = ref (x2 + rx) and p3 = ref (x3 + rx) in
      let q0 = ref (a0 + ra) and q1 = ref (a1 + ra) and q2 = ref (a2 + ra) and q3 = ref (a3 + ra) in
      let u0 = ref (b0 + rb) and u1 = ref (b1 + rb) and u2 = ref (b2 + rb) and u3 = ref (b3 + rb) in
      for _ = 1 to n0 do
        c0 := !c0 +. (Array.unsafe_get xd !p0 *. Array.unsafe_get w0 !q0 *. Array.unsafe_get w1 !u0);
        c1 := !c1 +. (Array.unsafe_get xd !p1 *. Array.unsafe_get w0 !q1 *. Array.unsafe_get w1 !u1);
        c2 := !c2 +. (Array.unsafe_get xd !p2 *. Array.unsafe_get w0 !q2 *. Array.unsafe_get w1 !u2);
        c3 := !c3 +. (Array.unsafe_get xd !p3 *. Array.unsafe_get w0 !q3 *. Array.unsafe_get w1 !u3);
        p0 := !p0 + xs0;
        p1 := !p1 + xs0;
        p2 := !p2 + xs0;
        p3 := !p3 + xs0;
        q0 := !q0 + s00;
        q1 := !q1 + s00;
        q2 := !q2 + s00;
        q3 := !q3 + s00;
        u0 := !u0 + s10;
        u1 := !u1 + s10;
        u2 := !u2 + s10;
        u3 := !u3 + s10
      done
    done
  done;
  od.(s.bo.(0)) <- !c0;
  od.(s.bo.(1)) <- !c1;
  od.(s.bo.(2)) <- !c2;
  od.(s.bo.(3)) <- !c3

let same_box s =
  let same = ref true and j = ref 0 in
  while !same && !j < Array.length s.rlo do
    same := s.rlo.(!j) = s.blo.(!j) && s.rext.(!j) = s.bext.(!j);
    incr j
  done;
  !same

let forward_element n datas out () =
  (* The nest's spare scratch if no other range holds it: what it caches
     holds for any call of the nest, but its walk is worked out again,
     since a mutant may have been armed since. *)
  let s =
    match Atomic.exchange n.spare None with
    | Some s ->
        s.walked <- false;
        s
    | None -> state n
  in
  let xd = datas.(0) and wd = Array.sub datas 1 (Array.length datas - 1) in
  let n_w = Array.length wd in
  let woffs = s.woffs in
  let inner =
    match n_w with
    | 1 ->
        let w0 = wd.(0) in
        fun xo n1 xs1 n0 xs0 st1 st0 ->
          fwd1 out s.o xd ~n1 ~xs1 ~n0 ~xs0 xo w0 woffs.(0) ~s01:st1.(0) ~s00:st0.(0)
    | 2 ->
        let w0 = wd.(0) and w1 = wd.(1) in
        fun xo n1 xs1 n0 xs0 st1 st0 ->
          fwd2 out s.o xd ~n1 ~xs1 ~n0 ~xs0 xo w0 woffs.(0) ~s01:st1.(0) ~s00:st0.(0) w1
            woffs.(1) ~s11:st1.(1) ~s10:st0.(1)
    | _ -> fun xo n1 xs1 n0 xs0 st1 st0 -> fwd_n out s.o xd ~n1 ~xs1 ~n0 ~xs0 xo wd woffs ~st1 ~st0
  in
  let point x =
    let v = ref xd.(x) in
    for q = 0 to n_w - 1 do
      v := !v *. wd.(q).(woffs.(q))
    done;
    out.(s.o) <- out.(s.o) +. !v
  in
  let guarded () = guarded n s point in
  (* The pending block, walked once: a lone output runs the per-output
     path, two or three are padded with copies of the last. *)
  let flush () =
    let nb = s.nb in
    if nb > 0 then begin
      s.nb <- 0;
      walk n s s.bext;
      corner n s s.blo;
      if nb = 1 then begin
        s.o <- s.bo.(0);
        s.xo <- s.xo + s.bx.(0);
        for q = 0 to n_w - 1 do
          woffs.(q) <- woffs.(q) + s.bw.(q * block)
        done;
        interior n s inner
      end
      else begin
        for i = nb to block - 1 do
          s.bo.(i) <- s.bo.(nb - 1);
          s.bx.(i) <- s.bx.(nb - 1);
          for q = 0 to n_w - 1 do
            s.bw.((q * block) + i) <- s.bw.((q * block) + nb - 1)
          done
        done;
        match n_w with
        | 0 -> blk0 s out xd
        | 1 ->
            let one a = a.(0) = a.(1) && a.(1) = a.(2) && a.(2) = a.(3) in
            if one s.bw then blk1_one_w s out xd wd.(0)
            else if one s.bx then blk1_one_x s out xd wd.(0)
            else blk1 s out xd wd.(0)
        | _ -> blk2 s out xd wd.(0) wd.(1)
      end
    end
  in
  let element =
    if n.any_closure || n_w > 2 then run_output n s ~inner ~guarded
    else fun pos w ->
      s.o <- w;
      match locate n s pos w with
      | Empty -> ()
      | Inside ->
          (* A box clipped anew may differ from the block's. *)
          if s.nb > 0 && s.fresh && not (same_box s) then flush ();
          let i = s.nb in
          if i = 0 then
            for j = 0 to Array.length s.rlo - 1 do
              s.blo.(j) <- s.rlo.(j);
              s.bext.(j) <- s.rext.(j)
            done;
          s.bo.(i) <- w;
          s.bx.(i) <- s.offs.(0);
          for q = 0 to n_w - 1 do
            s.bw.((q * block) + i) <- s.offs.(q + 1)
          done;
          s.nb <- i + 1;
          if i + 1 = block then flush ()
      | Partial -> guarded ()
  in
  let finish () =
    flush ();
    Atomic.set n.spare (Some s)
  in
  (element, finish)

(* Compiled once by {!compile}; see the interface for the contract. *)
let forward t ~input ~weights =
  check_arguments "Reference.forward" ~input_shape:t.in_shape ~weight_shapes:t.weight_shapes ~input
    ~weights;
  let out = Tensor.create t.out_shape in
  let datas = Array.of_list (List.map Tensor.unsafe_data (input :: weights)) in
  if t.nest.red_total > 0 then begin
    let element, finish = forward_element t.nest datas (Tensor.unsafe_data out) () in
    each_position t.out_shape element;
    finish ()
  end;
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

(* Compiled once by {!compile}; see the interface for the contract.
   Outputs whose [grad_out] is 0 are skipped. *)
let backward t ~input ~weights ~grad_out =
  check_arguments "Reference.backward" ~input_shape:t.in_shape ~weight_shapes:t.weight_shapes ~input
    ~weights;
  check_shape "Reference.backward" "grad_out" (Tensor.shape grad_out) t.out_shape;
  let wd = Array.of_list (List.map Tensor.unsafe_data weights) in
  let xd = Tensor.unsafe_data input in
  let go = Tensor.unsafe_data grad_out in
  let grad_in = Tensor.create t.in_shape in
  let gi = Tensor.unsafe_data grad_in in
  let grad_ws = List.map Tensor.create t.weight_shapes in
  let gw = Array.of_list (List.map Tensor.unsafe_data grad_ws) in
  let n = t.nest in
  let s = state n in
  let woffs = s.woffs in
  let inner =
    match Array.length wd with
    | 1 ->
        fun xo n1 xs1 n0 xs0 st1 st0 ->
          back1 gi xd go.(s.o) ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) gw.(0) woffs.(0) ~s01:st1.(0)
            ~s00:st0.(0)
    | 2 ->
        fun xo n1 xs1 n0 xs0 st1 st0 ->
          back2 gi xd go.(s.o) ~n1 ~xs1 ~n0 ~xs0 xo wd.(0) gw.(0) woffs.(0) ~s01:st1.(0)
            ~s00:st0.(0) wd.(1) gw.(1) woffs.(1) ~s11:st1.(1) ~s10:st0.(1)
    | _ ->
        fun xo n1 xs1 n0 xs0 st1 st0 ->
          back_n gi xd go.(s.o) ~n1 ~xs1 ~n0 ~xs0 xo wd gw woffs ~st1 ~st0
  in
  let point x = back_point gi xd go.(s.o) x wd gw woffs in
  let guarded () = guarded n s point in
  if n.red_total > 0 then
    each_position t.out_shape (fun pos w ->
        if go.(w) <> 0.0 then run_output n s ~inner ~guarded pos w);
  (grad_in, grad_ws)

module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

(* A runtime factor dimension: the coordinate expression that indexes
   it (over the not-yet-reduced iterators), its extent, and the value
   corresponding to index 0.  Accesses outside [lo, lo + extent) clip
   to zero (the Unfold boundary semantics). *)
type fdim = { expr : Ast.t; extent : int; lo : int }

type factor = { dims : fdim list; data : Tensor.t }

let iter_in it e = List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters e)

let residual it e =
  let rec strip e =
    match e with
    | Ast.Add (a, b) -> Ast.add (strip a) (strip b)
    | Ast.Sub (a, b) -> Ast.sub (strip a) (strip b)
    | Ast.Iter j when j.Ast.id = it.Ast.id -> Ast.const 0
    | Ast.Mul (_, Ast.Iter j) when j.Ast.id = it.Ast.id -> Ast.const 0
    | e -> e
  in
  Simplify.flatten (strip e)

(* The linear coefficient of [it] in [e]: e = residual + c * it. *)
let coefficient lookup it e =
  let res = residual it e in
  let env1 id = if id = it.Ast.id then 1 else 0 in
  let env0 _ = 0 in
  Ast.eval ~env:env1 ~lookup e - Ast.eval ~env:env1 ~lookup res
  - (Ast.eval ~env:env0 ~lookup e - Ast.eval ~env:env0 ~lookup res)

(* --- Symbolic plan ------------------------------------------------------ *)

(* One factor-dimension access of a materialization stage: the window
   it must hit, the slot of the new tensor that carries its residual
   (or [-1] with the residual constant in [u_base] when the reduction
   alone indexes it), and the linear coefficient of the reduced
   iterator.  The executor's value for this access at position [pos]
   and reduction step [r] is
   [(if u_slot >= 0 then pos.(u_slot) + lows.(u_slot) else u_base) + u_coef * r]. *)
type use = {
  u_expr : Ast.t;
  u_lo : int;
  u_extent : int;
  u_slot : int;
  u_base : int;
  u_coef : int;
}

type stage_sym = {
  ss_dom : int;
  ss_extents : int array;
  ss_lows : int array;
  ss_uses : use array array;
  ss_participating : int array;
  ss_others : int array;
  ss_new_dims : fdim list;
}

type final_sym = {
  fs_out_ids : int array;
  fs_out_doms : int array;
  fs_red_ids : int array;
  fs_red_doms : int array;
  fs_env_size : int;
  fs_factors : (Ast.t * int * int) array array;
}

(* The complete symbolic bookkeeping of one materialization stage.
   [materialize] below consumes this for the numeric loop and
   [access_plan] derives the verifier's access lists from it, so the
   three views (execution, verification, specialization) cannot
   drift. *)
let stage_sym lookup it dom (dims_list : fdim list list) =
  let tagged = List.mapi (fun i dims -> (i, dims)) dims_list in
  let participating, others =
    List.partition
      (fun (_, dims) -> List.exists (fun d -> iter_in it d.expr) dims)
      tagged
  in
  let new_dims : fdim list ref = ref [] in
  let slot_of dim =
    let rec find i = function
      | [] -> None
      | d :: _ when Ast.equal d.expr dim.expr -> Some i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 (List.rev !new_dims)
  in
  let uses =
    List.map
      (fun (_, dims) ->
        Array.of_list
          (List.map
             (fun d ->
               let affected = iter_in it d.expr in
               let c = if affected then coefficient lookup it d.expr else 0 in
               let target =
                 if affected then
                   let res = residual it d.expr in
                   match res with
                   | Ast.Const base -> `Consumed base
                   | res ->
                       (* The executor indexes materialized dims by VALUE,
                          so the extent is the dense range — unlike the
                          cost model, which counts distinct values for
                          strided residuals. *)
                       let lo, hi = Ast.bounds ~lookup res in
                       `Dim { expr = res; extent = hi - lo + 1; lo }
                 else `Dim d
               in
               match target with
               | `Consumed base ->
                   { u_expr = d.expr; u_lo = d.lo; u_extent = d.extent;
                     u_slot = -1; u_base = base; u_coef = c }
               | `Dim nd -> (
                   let slot =
                     match slot_of nd with
                     | Some slot -> slot
                     | None ->
                         new_dims := nd :: !new_dims;
                         List.length !new_dims - 1
                   in
                   { u_expr = d.expr; u_lo = d.lo; u_extent = d.extent;
                     u_slot = slot; u_base = 0; u_coef = c }))
             dims))
      participating
  in
  let dims = List.rev !new_dims in
  {
    ss_dom = dom;
    ss_extents = Array.of_list (List.map (fun d -> d.extent) dims);
    ss_lows = Array.of_list (List.map (fun d -> d.lo) dims);
    ss_uses = Array.of_list uses;
    ss_participating = Array.of_list (List.map fst participating);
    ss_others = Array.of_list (List.map fst others);
    ss_new_dims = dims;
  }

(* --- The box driver ---------------------------------------------------- *)

(* Cancellation poll cadence of a sequential box run: coarse enough to
   stay off the per-element profile, fine enough to bound preemption
   latency to a few thousand accumulations. *)
let poll_mask = 4095

(* Minimum estimated scalar operations (box volume times per-element
   cost) before a box is worth offering to the default pool; below this
   the submission overhead dominates.  The pool's own granularity tuner
   still gets the final say — it probes the body and falls back to a
   sequential polled run when the measured per-element cost cannot
   amortize parallel claim overhead. *)
let par_threshold = 1 lsl 12

let poll cancel = Option.iter Robust.Cancel.check cancel

(* The one box driver: [element pos w] for every position [pos] of a
   nest with the given [extents], where [w] is [pos]'s row-major
   offset, then [finish ()].  [make] builds one [(element, finish)]
   pair, with private scratch, per range run, so work an element defers
   never crosses a range; each element writes only its own output
   cell, so results are bit-identical at any pool size.  A range
   decodes its first position once and then steps [pos] and [w] with a
   carry, so an element must not write [pos].  Sequential runs poll
   [cancel] every [poll_mask + 1] elements; pool runs poll it at every
   range claim. *)
let run_box ?cancel ~cost ~extents make =
  let n = Array.length extents in
  let volume = Array.fold_left ( * ) 1 extents in
  let range ~polled first last =
    let element, finish = make () in
    let pos = Array.make (max 1 n) 0 in
    if first < last then begin
      let rem = ref first in
      for i = n - 1 downto 0 do
        pos.(i) <- !rem mod extents.(i);
        rem := !rem / extents.(i)
      done
    end;
    for w = first to last - 1 do
      if polled && w land poll_mask = 0 then poll cancel;
      element pos w;
      let i = ref (n - 1) in
      while !i >= 0 do
        let a = !i in
        pos.(a) <- pos.(a) + 1;
        if pos.(a) < extents.(a) then i := -1
        else begin
          pos.(a) <- 0;
          decr i
        end
      done
    done;
    finish ()
  in
  let pool = Par.Pool.get_default () in
  if volume * cost >= par_threshold && Par.Pool.size pool > 1 && volume > 1 then
    Par.Pool.parallel_for pool ?cancel ~n:volume (range ~polled:false)
  else range ~polled:true 0 volume

(* Run one materialization stage: [fill datas out] computes the new
   tensor's data [out] from the participating factors' data [datas]. *)
let materialize sym factors fill =
  let arr = Array.of_list factors in
  let tensor = Tensor.create (Array.copy sym.ss_extents) in
  fill
    (Array.map (fun i -> Tensor.unsafe_data arr.(i).data) sym.ss_participating)
    (Tensor.unsafe_data tensor);
  { dims = sym.ss_new_dims; data = tensor }
  :: List.map (fun i -> arr.(i)) (Array.to_list sym.ss_others)

(* --- Static access structure ------------------------------------------ *)

(* A faithful dims-only mirror of the factor bookkeeping [forward]
   performs, for the static bounds verifier: which expressions index
   which windows at each stage, without allocating any tensor. *)

type access = {
  acc_expr : Ast.t;
  acc_lo : int;
  acc_extent : int;
  acc_values : (int * int) option;
}

let initial_dims op lookup =
  List.map2
    (fun e s -> { expr = e; extent = Size.eval s lookup; lo = 0 })
    op.Graph.op_input_exprs op.Graph.op_input_shape
  :: List.map
       (fun grp ->
         List.map
           (fun it -> { expr = Ast.iter it; extent = Size.eval it.Ast.dom lookup; lo = 0 })
           grp)
       op.Graph.op_weights

(* The value range of an affected dim's accesses is positional: the
   dense residual window (every position of the materialized tensor is
   enumerated) shifted by [c * r] over the reduction — exactly what the
   executor's [(pos + lo) + c*r] produces.  Unaffected dims of
   participating factors carry [u_coef = 0] and a slot over their own
   window, so the same formula covers them. *)
let stage_sym_accesses sym =
  List.concat_map
    (fun fuses ->
      List.map
        (fun u ->
          let vlo, vhi =
            if u.u_slot >= 0 then
              ( sym.ss_lows.(u.u_slot),
                sym.ss_lows.(u.u_slot) + sym.ss_extents.(u.u_slot) - 1 )
            else (u.u_base, u.u_base)
          in
          let step = u.u_coef * (sym.ss_dom - 1) in
          {
            acc_expr = u.u_expr;
            acc_lo = u.u_lo;
            acc_extent = u.u_extent;
            acc_values = Some (vlo + min 0 step, vhi + max 0 step);
          })
        (Array.to_list fuses))
    (Array.to_list sym.ss_uses)

(* The per-stage symbolic plans, folded over the evolving factor dim
   lists (new tensor first, then the untouched factors in order —
   exactly the factor-list evolution of [forward]), plus the final
   contraction's iteration/access structure. *)
let build_symbolic_plan op valuation plan =
  let lookup = Valuation.lookup valuation in
  let syms_rev, dims_list =
    List.fold_left
      (fun (acc, dims_list) stage ->
        let it = stage.Staging.reduced in
        let dom = Size.eval it.Ast.dom lookup in
        let sym = stage_sym lookup it dom dims_list in
        let arr = Array.of_list dims_list in
        let dims_list' =
          sym.ss_new_dims :: List.map (fun i -> arr.(i)) (Array.to_list sym.ss_others)
        in
        (sym :: acc, dims_list'))
      ([], initial_dims op lookup)
      plan.Staging.stages
  in
  let reduced_ids =
    List.map (fun s -> s.Staging.reduced.Ast.id) plan.Staging.stages
  in
  let remaining =
    List.filter (fun it -> not (List.mem it.Ast.id reduced_ids)) op.Graph.op_reductions
  in
  let spatial = op.Graph.op_output_iters in
  let n_env =
    1
    + List.fold_left max (-1)
        (List.map (fun it -> it.Ast.id) (spatial @ op.Graph.op_reductions))
  in
  let final =
    {
      fs_out_ids = Array.of_list (List.map (fun it -> it.Ast.id) spatial);
      fs_out_doms =
        Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) spatial);
      fs_red_ids = Array.of_list (List.map (fun it -> it.Ast.id) remaining);
      fs_red_doms =
        Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) remaining);
      fs_env_size = max 1 n_env;
      fs_factors =
        Array.of_list
          (List.map
             (fun dims ->
               Array.of_list (List.map (fun d -> (d.expr, d.lo, d.extent)) dims))
             dims_list);
    }
  in
  (List.rev syms_rev, final)

type t = {
  op : Graph.operator;
  valuation : Valuation.t;
  plan : Staging.plan;
  sym : stage_sym list * final_sym;  (* [symbolic_plan], built once *)
  initial : fdim list list;  (* the input's dims, then each weight group's *)
}

let compile op valuation =
  let lookup = Valuation.lookup valuation in
  (* Every size the operator uses, evaluated once ([Ast.bounds] evaluates
     each size of an expression): an operator that is not instantiable
     under [valuation] fails here with [Size.eval]'s [Failure], as
     [Reference.compile] does, not later in a nest. *)
  List.iter (fun s -> ignore (Size.eval s lookup)) op.Graph.op_output_shape;
  List.iter (fun e -> ignore (Ast.bounds ~lookup e)) op.Graph.op_input_exprs;
  let plan = Staging.optimize op valuation in
  {
    op;
    valuation;
    plan;
    sym = build_symbolic_plan op valuation plan;
    initial = initial_dims op lookup;
  }

let plan t = t.plan
let num_stages t = List.length t.plan.Staging.stages
let operator t = t.op
let valuation t = t.valuation
let reference t = Reference.compile t.op t.valuation
let symbolic_plan t = t.sym

let access_plan t =
  let syms, final = symbolic_plan t in
  (* Final stage: every remaining factor dim is indexed by evaluating
     its expression over the output / remaining-reduction loops. *)
  let contraction =
    List.concat_map
      (fun dims ->
        List.map
          (fun (expr, lo, extent) ->
            { acc_expr = expr; acc_lo = lo; acc_extent = extent; acc_values = None })
          (Array.to_list dims))
      (Array.to_list final.fs_factors)
  in
  List.map stage_sym_accesses syms @ [ contraction ]

(* Every run of the nests checks its arguments here, through
   {!Reference.check_arguments}: a tensor of the wrong shape would
   otherwise be read unchecked by a nest's unlisted accesses. *)
let initial_factors t ~input ~weights =
  let shape dims = Array.of_list (List.map (fun d -> d.extent) dims) in
  Reference.check_arguments "forward" ~input_shape:(shape (List.hd t.initial))
    ~weight_shapes:(List.map shape (List.tl t.initial)) ~input ~weights;
  List.map2 (fun dims data -> { dims; data }) t.initial (input :: weights)

(* --- The nests ------------------------------------------------------------ *)

(* One nest's clip set as per-factor, per-dim flags, given the
   per-factor dim counts; an index outside the nest's accesses is a
   shape error. *)
let clip_flags ~what counts clips =
  let accesses = Array.fold_left ( + ) 0 counts in
  List.iter
    (fun c ->
      if c < 0 || c >= accesses then
        invalid_arg
          (Printf.sprintf "Staged_exec.nests: %s: clip index %d outside the nest's %d accesses"
             what c accesses))
    clips;
  let first = ref 0 in
  Array.map
    (fun n ->
      let f = !first in
      first := f + n;
      Array.init n (fun j -> List.mem (f + j) clips))
    counts

(* A stage is a contraction over the positions of its materialized
   tensor with one reduction axis, its reduced iterator: a use's index
   is its slot's position plus that slot's low (or its constant base),
   plus its coefficient times the step, its window low subtracted. *)
let stage_nest sym clips =
  let n_axes = Array.length sym.ss_extents in
  let dims =
    Array.map
      (Array.map (fun u ->
           let out = Array.make n_axes 0 in
           let base =
             if u.u_slot >= 0 then begin
               out.(u.u_slot) <- 1;
               sym.ss_lows.(u.u_slot)
             end
             else u.u_base
           in
           Reference.affine_dim ~const:(base - u.u_lo) ~out ~red:[| u.u_coef |]
             ~extent:u.u_extent))
      sym.ss_uses
  in
  Reference.nest ~out_ids:[||] ~red_ids:[| 0 |] ~red_doms:[| sym.ss_dom |] ~env_size:1 dims ~clips

let final_nest lookup fsym clips =
  let out_ids = fsym.fs_out_ids and red_ids = fsym.fs_red_ids in
  let env_size = fsym.fs_env_size in
  Reference.nest ~out_ids ~red_ids ~red_doms:fsym.fs_red_doms ~env_size
    (Array.map
       (Array.map (fun (expr, lo, extent) ->
            Reference.expr_dim lookup ~out_ids ~red_ids ~env_size expr ~lo ~extent))
       fsym.fs_factors)
    ~clips

(* Every nest of [t], each stage's in plan order and then the final
   contraction's, nest [k]'s clip flags being [clips k counts] for its
   per-factor dim counts [counts]. *)
let build_nests t clips =
  let syms, fsym = t.sym in
  let stages =
    List.mapi (fun k sym -> stage_nest sym (clips k (Array.map Array.length sym.ss_uses))) syms
  in
  let final =
    final_nest (Valuation.lookup t.valuation) fsym
      (clips (List.length syms) (Array.map Array.length fsym.fs_factors))
  in
  Array.of_list (stages @ [ final ])

let nests t plan =
  let n_nests = num_stages t + 1 in
  if Array.length plan <> n_nests then
    invalid_arg
      (Printf.sprintf "Staged_exec.nests: plan has %d clip sets, executor has %d nests"
         (Array.length plan) n_nests);
  build_nests t (fun k counts ->
      let what = if k = n_nests - 1 then "final" else Printf.sprintf "stage %d" k in
      clip_flags ~what counts plan.(k))

(* One nest over its factors' data [datas] into [out]: every output of
   the box [extents] through the box driver, [red_total] reduction
   points each at most. *)
let run_nest ?cancel nest ~extents ~red_total datas out =
  run_box ?cancel ~cost:(red_total + 1) ~extents (Reference.forward_element nest datas out)

let run_nests ?cancel t nests ~input ~weights =
  let syms, fsym = t.sym in
  (* Early stages in plan order; each stage boundary is a safe point. *)
  let factors =
    List.fold_left
      (fun factors (k, sym) ->
        poll cancel;
        materialize sym factors
          (run_nest ?cancel nests.(k) ~extents:sym.ss_extents ~red_total:sym.ss_dom))
      (initial_factors t ~input ~weights)
      (List.mapi (fun k sym -> (k, sym)) syms)
  in
  (* Final stage: loop over outputs and the remaining reductions. *)
  let out = Tensor.create fsym.fs_out_doms in
  run_nest ?cancel nests.(List.length syms) ~extents:fsym.fs_out_doms
    ~red_total:(Array.fold_left ( * ) 1 fsym.fs_red_doms)
    (Array.of_list (List.map (fun f -> Tensor.unsafe_data f.data) factors))
    (Tensor.unsafe_data out);
  out

(* The full-clip nests are built per call: [compile] serves callers
   that only certify or analyse, and builds none. *)
let forward ?cancel t ~input ~weights =
  run_nests ?cancel t
    (build_nests t (fun _ counts -> Array.map (fun n -> Array.make n true) counts))
    ~input ~weights

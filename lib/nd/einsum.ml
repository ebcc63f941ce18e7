let parse spec =
  match String.index_opt spec '-' with
  | Some i when i + 1 < String.length spec && spec.[i + 1] = '>' ->
      let lhs = String.sub spec 0 i in
      let rhs = String.sub spec (i + 2) (String.length spec - i - 2) in
      (String.split_on_char ',' lhs, rhs)
  | Some _ | None -> invalid_arg "Einsum: spec must contain '->'"

let input_labels spec = fst (parse spec)
let output_labels spec = snd (parse spec)

type plan = {
  out_shape : int array;
  out_extents : int array;  (* extents of output labels *)
  sum_extents : int array;  (* extents of summed labels *)
  (* Per input: strides indexed by (output label position, summed label
     position) so a flat offset is a dot product with the current
     assignment. *)
  in_out_strides : int array array;
  in_sum_strides : int array array;
  in_shapes : int array list;
}

let plan spec shapes =
  let inputs, out = parse spec in
  if List.length inputs <> List.length shapes then
    invalid_arg "Einsum.plan: input count mismatch";
  let extents = Hashtbl.create 16 in
  List.iter2
    (fun labels shape ->
      if String.length labels <> Array.length shape then
        invalid_arg
          (Printf.sprintf "Einsum.plan: labels %s do not match rank %d" labels
             (Array.length shape));
      String.iteri
        (fun i c ->
          match Hashtbl.find_opt extents c with
          | None -> Hashtbl.add extents c shape.(i)
          | Some e ->
              if e <> shape.(i) then
                invalid_arg (Printf.sprintf "Einsum.plan: inconsistent extent for '%c'" c))
        labels)
    inputs shapes;
  String.iteri
    (fun i c ->
      if not (Hashtbl.mem extents c) then
        invalid_arg (Printf.sprintf "Einsum.plan: output label '%c' unbound" c);
      (* A repeated output label ("ij->ii") would silently produce a full
         dense output with wrong semantics; numpy rejects it too. *)
      if String.index out c <> i then
        invalid_arg (Printf.sprintf "Einsum.plan: repeated output label '%c'" c))
    out;
  let all_labels =
    List.sort_uniq Char.compare
      (List.concat_map (fun l -> List.init (String.length l) (String.get l)) inputs)
  in
  let summed =
    List.filter (fun c -> not (String.contains out c)) all_labels
  in
  let out_list = List.init (String.length out) (String.get out) in
  let extent c = Hashtbl.find extents c in
  let strides_for labels shape =
    (* stride of each axis in its tensor *)
    let n = Array.length shape in
    let strides = Array.make n 1 in
    for i = n - 2 downto 0 do
      strides.(i) <- strides.(i + 1) * shape.(i + 1)
    done;
    (* label -> total stride (a label may repeat within one input, e.g.
       a trace; strides then add) *)
    fun c ->
      let total = ref 0 in
      String.iteri (fun i c' -> if c' = c then total := !total + strides.(i)) labels;
      !total
  in
  let per_input f = List.map2 (fun labels shape -> f (strides_for labels shape)) inputs shapes in
  {
    out_shape = Array.of_list (List.map extent out_list);
    out_extents = Array.of_list (List.map extent out_list);
    sum_extents = Array.of_list (List.map extent summed);
    in_out_strides =
      Array.of_list (per_input (fun stride -> Array.of_list (List.map stride out_list)));
    in_sum_strides =
      Array.of_list (per_input (fun stride -> Array.of_list (List.map stride summed)));
    in_shapes = shapes;
  }

(* Below this many scalar multiply-adds the loop runs sequentially even
   on a large pool: domain wakeup costs more than the contraction. *)
let par_threshold = 1 lsl 14

(* One odometer step over the axes [0..last] of extents [extents]: the
   position [idx] moves to its row-major successor and each input's
   offset in [offs] with it ([strides] per input, per axis); a carry
   takes back [extent * stride]. *)
let step idx extents strides offs last =
  let a = ref last in
  while !a >= 0 do
    let ax = !a in
    idx.(ax) <- idx.(ax) + 1;
    let steps = if idx.(ax) < extents.(ax) then 1 else 1 - extents.(ax) in
    if steps = 1 then a := -1
    else begin
      idx.(ax) <- 0;
      decr a
    end;
    for k = 0 to Array.length offs - 1 do
      offs.(k) <- offs.(k) + (steps * strides.(k).(ax))
    done
  done

(* When cancellable, the body polls the token every [poll_quantum]
   output elements, so preemption latency is bounded by the work of one
   sub-chunk while keeping the poll off the inner accumulation loop. *)
let poll_quantum = 4096

let run ?pool ?cancel p tensors =
  List.iter2
    (fun t sh ->
      if Tensor.shape t <> sh then invalid_arg "Einsum.run: tensor shape changed since plan")
    tensors p.in_shapes;
  let datas = Array.of_list (List.map Tensor.unsafe_data tensors) in
  let n_inputs = Array.length datas in
  let out = Tensor.create p.out_shape in
  let out_data = Tensor.unsafe_data out in
  let n_out = Array.length p.out_extents in
  let n_sum = Array.length p.sum_extents in
  let total_out = Array.fold_left ( * ) 1 p.out_extents in
  let total_sum = Array.fold_left ( * ) 1 p.sum_extents in
  (* Each chunk of output elements gets private scratch, so domains
     share nothing mutable except disjoint slices of [out_data]; the
     per-element accumulation order is unchanged, making the result
     bit-identical at any pool size. *)
  let body lo hi =
    let out_idx = Array.make n_out 0 in
    let base = Array.make n_inputs 0 in
    let offs = Array.make n_inputs 0 in
    let sum_idx = Array.make (max 1 n_sum) 0 in
    (* The innermost summed label is a strided run; the others step an
       odometer that carries each input's offset. *)
    let n0 = if n_sum > 0 then p.sum_extents.(n_sum - 1) else 1 in
    let st0 =
      Array.init n_inputs (fun k -> if n_sum > 0 then p.in_sum_strides.(k).(n_sum - 1) else 0)
    in
    let outer = total_sum / n0 in
    let d0 = datas.(0) and s0 = st0.(0) in
    let input k = if n_inputs > k then (datas.(k), st0.(k)) else (d0, 0) in
    let d1, s1 = input 1 and d2, s2 = input 2 in
    if hi > lo then begin
      (* decode the first output assignment; later ones step a carry *)
      let rem = ref lo in
      for i = n_out - 1 downto 0 do
        out_idx.(i) <- !rem mod p.out_extents.(i);
        rem := !rem / p.out_extents.(i)
      done;
      for k = 0 to n_inputs - 1 do
        let off = ref 0 in
        let strides = p.in_out_strides.(k) in
        for i = 0 to n_out - 1 do
          off := !off + (strides.(i) * out_idx.(i))
        done;
        base.(k) <- !off
      done
    end;
    for flat_out = lo to hi - 1 do
      Array.blit base 0 offs 0 n_inputs;
      let acc = ref 0.0 in
      for _ = 1 to outer do
        (match n_inputs with
        | 1 ->
            let o0 = ref offs.(0) in
            for _ = 1 to n0 do
              acc := !acc +. (1.0 *. d0.(!o0));
              o0 := !o0 + s0
            done
        | 2 ->
            let o0 = ref offs.(0) and o1 = ref offs.(1) in
            for _ = 1 to n0 do
              acc := !acc +. (1.0 *. d0.(!o0) *. d1.(!o1));
              o0 := !o0 + s0;
              o1 := !o1 + s1
            done
        | 3 ->
            let o0 = ref offs.(0) and o1 = ref offs.(1) and o2 = ref offs.(2) in
            for _ = 1 to n0 do
              acc := !acc +. (1.0 *. d0.(!o0) *. d1.(!o1) *. d2.(!o2));
              o0 := !o0 + s0;
              o1 := !o1 + s1;
              o2 := !o2 + s2
            done
        | _ ->
            for r = 0 to n0 - 1 do
              let product = ref 1.0 in
              for k = 0 to n_inputs - 1 do
                product := !product *. datas.(k).(offs.(k) + (r * st0.(k)))
              done;
              acc := !acc +. !product
            done);
        step sum_idx p.sum_extents p.in_sum_strides offs (n_sum - 2)
      done;
      out_data.(flat_out) <- !acc;
      step out_idx p.out_extents p.in_out_strides base (n_out - 1)
    done
  in
  let polled_body =
    match cancel with
    | None -> body
    | Some c ->
        fun lo hi ->
          let i = ref lo in
          while !i < hi do
            Robust.Cancel.check c;
            let j = min hi (!i + poll_quantum) in
            body !i j;
            i := j
          done
  in
  let work = total_out * total_sum * max 1 n_inputs in
  if work < par_threshold then polled_body 0 total_out
  else begin
    (* The pool polls the token at every claim and between the
       slices of its sequential fallbacks, so the raw body goes in:
       the pool's auto-tuned grain (~tens of microseconds) bounds
       preemption latency tighter than [poll_quantum] would. *)
    let pool = match pool with Some p -> p | None -> Par.Pool.get_default () in
    Par.Pool.parallel_for pool ?cancel ~n:total_out body
  end;
  out

let einsum ?pool ?cancel spec tensors =
  run ?pool ?cancel (plan spec (List.map Tensor.shape tensors)) tensors

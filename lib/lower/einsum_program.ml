module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

type t = {
  op : Graph.operator;
  in_shape : int array;
  gather_shape : int array;  (* the (output x reduction) grid *)
  tables : int array array;  (* per input dim: its index table *)
  table_strides : int array array;  (* per input dim: its table's stride per grid axis *)
  spec : string;
  plan : Nd.Einsum.plan Lazy.t;
  weight_shapes : int array list;
}

(* Letters for iterators: spatial and reduction iterators get stable
   labels by id. *)
let letter_of_id id =
  if id < 26 then Char.chr (Char.code 'a' + id)
  else invalid_arg "Einsum_program: too many iterators"

let row_major shape =
  let n = Array.length shape in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * shape.(i + 1)
  done;
  s

(* [e] with every size evaluated, so that evaluating it per table entry
   looks no size variable up. *)
let rec resolve lookup (e : Ast.t) : Ast.t =
  let size s = Size.of_int (Size.eval s lookup) in
  match e with
  | Ast.Iter _ | Ast.Const _ -> e
  | Ast.Size_const s -> Ast.Const (Size.eval s lookup)
  | Ast.Add (a, b) -> Ast.Add (resolve lookup a, resolve lookup b)
  | Ast.Sub (a, b) -> Ast.Sub (resolve lookup a, resolve lookup b)
  | Ast.Mul (s, a) -> Ast.Mul (size s, resolve lookup a)
  | Ast.Div (a, s) -> Ast.Div (resolve lookup a, size s)
  | Ast.Mod (a, s) -> Ast.Mod (resolve lookup a, size s)

(* The index table of one input dim with expression [e], window
   [extent] and row-major input stride [stride], over the grid axes
   [e] mentions, in grid order: per assignment of those iterators,
   [v * stride] when [e]'s value [v] is inside [0, extent), else
   [clipped].  Returns the table and its stride per grid axis (0 on an
   axis [e] does not mention). *)
let index_table lookup ~grid_ids ~grid_doms ~extent ~stride ~clipped e =
  let e = resolve lookup e in
  let mentioned = List.map (fun (it : Ast.iter) -> it.Ast.id) (Ast.iters e) in
  let axes =
    List.filter (fun a -> List.mem grid_ids.(a) mentioned) (List.init (Array.length grid_ids) Fun.id)
  in
  let axes = Array.of_list axes in
  let ext = Array.map (fun a -> grid_doms.(a)) axes in
  let own = row_major ext in
  let strides = Array.make (Array.length grid_ids) 0 in
  Array.iteri (fun j a -> strides.(a) <- own.(j)) axes;
  let n_env = 1 + List.fold_left max (-1) (Array.to_list grid_ids @ mentioned) in
  let env = Array.make n_env 0 in
  let value id = env.(id) in
  let table =
    Array.init (Array.fold_left ( * ) 1 ext) (fun flat ->
        let rem = ref flat in
        for j = Array.length axes - 1 downto 0 do
          env.(grid_ids.(axes.(j))) <- !rem mod ext.(j);
          rem := !rem / ext.(j)
        done;
        let v = Ast.eval ~env:value ~lookup e in
        if v >= 0 && v < extent then v * stride else clipped)
  in
  (table, strides)

let compile (op : Graph.operator) valuation =
  let lookup = Valuation.lookup valuation in
  let eval_size s = Size.eval s lookup in
  let out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape) in
  let in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape) in
  let red_doms = List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions in
  let gather_shape = Array.append out_shape (Array.of_list red_doms) in
  let grid_ids =
    Array.of_list (List.map (fun it -> it.Ast.id) (op.Graph.op_output_iters @ op.Graph.op_reductions))
  in
  (* A clipped entry is so negative that a sum of one input offset per
     dim is negative exactly when some entry is clipped, and the sum of
     every dim's clipped entry cannot overflow. *)
  let clipped = min_int / (Array.length in_shape + 1) in
  let in_strides = row_major in_shape in
  let tables =
    List.mapi
      (fun i e ->
        index_table lookup ~grid_ids ~grid_doms:gather_shape ~extent:in_shape.(i)
          ~stride:in_strides.(i) ~clipped e)
      op.Graph.op_input_exprs
  in
  let labels its = String.init (List.length its) (fun i -> letter_of_id (List.nth its i).Ast.id) in
  let g_labels = labels (op.Graph.op_output_iters @ op.Graph.op_reductions) in
  let w_labels = List.map labels op.Graph.op_weights in
  let out_labels = labels op.Graph.op_output_iters in
  let spec = String.concat "," (g_labels :: w_labels) ^ "->" ^ out_labels in
  let weight_shapes =
    List.map
      (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
      op.Graph.op_weights
  in
  let plan = lazy (Nd.Einsum.plan spec (gather_shape :: weight_shapes)) in
  {
    op;
    in_shape;
    gather_shape;
    tables = Array.of_list (List.map fst tables);
    table_strides = Array.of_list (List.map snd tables);
    spec;
    plan;
    weight_shapes;
  }

(* An odometer over the grid carries each table's offset; a point reads
   the input at the sum of its tables' entries, unless that sum is
   negative (clipped). *)
let gather t ~input =
  if Tensor.shape input <> t.in_shape then
    invalid_arg "Einsum_program.forward: input shape mismatch";
  let g = Tensor.create t.gather_shape in
  let gd = Tensor.unsafe_data g and xd = Tensor.unsafe_data input in
  let tables = t.tables and ts = t.table_strides and shape = t.gather_shape in
  let n_in = Array.length tables and axes = Array.length shape in
  let offs = Array.make n_in 0 and pos = Array.make axes 0 in
  for p = 0 to Array.length gd - 1 do
    let x = ref 0 in
    for i = 0 to n_in - 1 do
      x := !x + tables.(i).(offs.(i))
    done;
    if !x >= 0 then gd.(p) <- xd.(!x);
    let a = ref (axes - 1) in
    while !a >= 0 do
      let ax = !a in
      pos.(ax) <- pos.(ax) + 1;
      let steps = if pos.(ax) < shape.(ax) then 1 else 1 - shape.(ax) in
      if steps = 1 then a := -1
      else begin
        pos.(ax) <- 0;
        decr a
      end;
      for i = 0 to n_in - 1 do
        offs.(i) <- offs.(i) + (steps * ts.(i).(ax))
      done
    done
  done;
  g

let forward t ~input ~weights =
  List.iter2
    (fun w sh -> if Tensor.shape w <> sh then invalid_arg "Einsum_program: weight shape")
    weights t.weight_shapes;
  let g = gather t ~input in
  Nd.Einsum.run (Lazy.force t.plan) (g :: weights)

(* --- Textual code generation ------------------------------------------- *)

let pp_shape ppf sizes =
  Format.fprintf ppf "[%s]" (String.concat ", " (List.map Size.to_string sizes))

let to_pytorch t =
  let op = t.op in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "def forward(self, x):\n";
  add "    # x: %s\n" (Format.asprintf "%a" pp_shape op.Graph.op_input_shape);
  add "    g = syno_gather(x, index_exprs=[%s],\n"
    (String.concat ", "
       (List.map (fun e -> Printf.sprintf "%S" (Ast.to_string e)) op.Graph.op_input_exprs));
  add "                    out_dims=%s)\n"
    (Format.asprintf "%a" pp_shape
       (op.Graph.op_output_shape @ List.map (fun it -> it.Ast.dom) op.Graph.op_reductions));
  let ws = List.mapi (fun i _ -> Printf.sprintf "self.w%d" i) op.Graph.op_weights in
  add "    return torch.einsum(%S, g%s)\n" t.spec
    (String.concat "" (List.map (fun w -> ", " ^ w) ws));
  Buffer.contents buf

let to_te t =
  let op = t.op in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let reductions = op.Graph.op_reductions in
  if reductions <> [] then
    add "auto [%s] = RDom(%s);\n"
      (String.concat ", " (List.map (fun it -> Printf.sprintf "r%d" it.Ast.id) reductions))
      (String.concat ", "
         (List.map (fun it -> Printf.sprintf "0, %s" (Size.to_string it.Ast.dom)) reductions));
  let out_args =
    String.concat ", "
      (List.map (fun it -> Printf.sprintf "i%d" it.Ast.id) op.Graph.op_output_iters)
  in
  let in_args = String.concat ", " (List.map Ast.to_string op.Graph.op_input_exprs) in
  let weight_accesses =
    List.mapi
      (fun i grp ->
        Printf.sprintf " * w%d(%s)" i
          (String.concat ", "
             (List.map
                (fun it ->
                  Printf.sprintf "%s%d"
                    (match it.Ast.role with Ast.Spatial -> "i" | Ast.Reduction -> "r")
                    it.Ast.id)
                grp)))
      op.Graph.op_weights
  in
  add "out(%s) %s= input(%s)%s;\n" out_args
    (if reductions = [] && op.Graph.op_weights = [] then "" else "+")
    in_args
    (String.concat "" weight_accesses);
  Buffer.contents buf

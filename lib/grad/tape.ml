module Tensor = Nd.Tensor

type v = {
  id : int;
  tape_id : int;
  data : Tensor.t;
  mutable grad : Tensor.t option;
  requires_grad : bool;
}

type node = { inputs : v list; out : v; vjp : grad_out:Tensor.t -> Tensor.t option list }

type t = { tid : int; mutable nodes : node list; mutable next : int }

let tape_counter = ref 0

let create () =
  incr tape_counter;
  { tid = !tape_counter; nodes = []; next = 0 }

let fresh t data requires_grad =
  let id = t.next in
  t.next <- id + 1;
  { id; tape_id = t.tid; data; grad = None; requires_grad }

let var t data = fresh t data true
let constant t data = fresh t data false
let data v = v.data

let grad v =
  match v.grad with
  | Some g -> g
  | None -> Tensor.create (Tensor.shape v.data)

let custom t ~inputs ~output ~vjp =
  List.iter
    (fun v ->
      if v.tape_id <> t.tid then invalid_arg "Tape.custom: input from another tape")
    inputs;
  let out = fresh t output (List.exists (fun v -> v.requires_grad) inputs) in
  if out.requires_grad then t.nodes <- { inputs; out; vjp } :: t.nodes;
  out

let accumulate v g =
  if v.requires_grad then
    match v.grad with
    | None -> v.grad <- Some (Tensor.copy g)
    | Some acc -> Tensor.add_ acc g

let backward t seed =
  if seed.tape_id <> t.tid then invalid_arg "Tape.backward: value not on this tape";
  let ones = Tensor.map (fun _ -> 1.0) seed.data in
  seed.grad <- Some ones;
  (* nodes are stored newest-first: exactly reverse topological order *)
  List.iter
    (fun node ->
      match node.out.grad with
      | None -> ()
      | Some g ->
          let cotangents = node.vjp ~grad_out:g in
          List.iter2
            (fun input ct ->
              match ct with
              | Some ct when input.requires_grad -> accumulate input ct
              | Some _ | None -> ())
            node.inputs cotangents)
    t.nodes

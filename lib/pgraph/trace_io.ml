module Size = Shape.Size
module Var = Shape.Var

let ( let* ) r f = Result.bind r f
let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

(* --- Sizes --------------------------------------------------------------- *)

let size_to_string s =
  let factors =
    (if Size.constant s <> 1 || Size.vars s = [] then [ string_of_int (Size.constant s) ]
     else [])
    @ List.map
        (fun v ->
          let prefix = if Var.is_coefficient v then "'" else "" in
          let e = Size.exponent s v in
          if e = 1 then prefix ^ Var.name v
          else Printf.sprintf "%s%s^%d" prefix (Var.name v) e)
        (Size.vars s)
  in
  String.concat "*" factors

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let parse_factor token =
  let token = String.trim token in
  if token = "" then fail "empty size factor"
  else
    let base, power =
      match String.index_opt token '^' with
      | Some i -> (
          let b = String.sub token 0 i in
          let p = String.sub token (i + 1) (String.length token - i - 1) in
          match int_of_string_opt p with
          | Some p -> (b, Ok p)
          | None -> (b, fail "bad exponent %S" p))
      | None -> (token, Ok 1)
    in
    let* power = power in
    if base = "" then fail "empty base in %S" token
    else if base.[0] = '\'' then
      let name = String.sub base 1 (String.length base - 1) in
      if name = "" || not (String.for_all is_ident_char name) then
        fail "bad coefficient variable %S" base
      else Ok (Size.var_pow (Var.coefficient name) power)
    else if String.for_all (fun c -> c >= '0' && c <= '9') base then
      match int_of_string_opt base with
      | Some 1 -> Ok Size.one
      | Some n when n > 0 && power >= 0 -> (
          (* Multiplied out here, refusing a value past [max_int]: a
             written power is untrusted input, and [Size.pow] would
             wrap, and recurse once per unit of the power. *)
          let rec go acc k =
            if k = 0 then Ok (Size.of_int acc)
            else if acc > max_int / n then fail "constant power overflows in %S" token
            else go (acc * n) (k - 1)
          in
          go 1 power)
      | Some n when n > 0 -> fail "non-integer constant power in %S" token
      | Some _ | None -> fail "bad integer literal %S" base
    else if String.for_all is_ident_char base then
      if power < 0 then fail "primary variable %S cannot have a negative power" base
      else Ok (Size.var_pow (Var.primary base) power)
    else fail "bad size factor %S" token

(* [acc * f] for the factor written [token], refusing what [Size.mul]
   would wrap: a constant past [max_int], or an exponent sum past the
   int range or below 0 for a primary variable. *)
let checked_mul token acc f =
  let a = Size.constant acc and b = Size.constant f in
  let bad_power (v, e) =
    let e0 = Size.exponent acc v in
    (e > 0 && e0 > max_int - e)
    || (e < 0 && e0 < min_int - e)
    || (Var.is_primary v && e0 + e < 0)
  in
  if a > max_int / b then fail "constant product overflows at %S" (String.trim token)
  else
    match List.find_opt bad_power (Size.pows f) with
    | Some (v, _) -> fail "power of %s overflows at %S" (Var.name v) (String.trim token)
    | None -> Ok (Size.mul acc f)

let size_of_string text =
  let tokens = String.split_on_char '*' text in
  List.fold_left
    (fun acc token ->
      let* acc = acc in
      let* f = parse_factor token in
      checked_mul token acc f)
    (Ok Size.one) tokens

(* --- Primitives ----------------------------------------------------------- *)

let prim_to_string = function
  | Prim.Split (p, q) -> Printf.sprintf "Split(%d,%d)" p q
  | Prim.Merge (p, b) -> Printf.sprintf "Merge(%d,%s)" p (size_to_string b)
  | Prim.Shift p -> Printf.sprintf "Shift(%d)" p
  | Prim.Unfold (p, w) -> Printf.sprintf "Unfold(%d,%d)" p w
  | Prim.Expand p -> Printf.sprintf "Expand(%d)" p
  | Prim.Stride (p, s) -> Printf.sprintf "Stride(%d,%s)" p (size_to_string s)
  | Prim.Reduce s -> Printf.sprintf "Reduce(%s)" (size_to_string s)
  | Prim.Share (p, Prim.New_group) -> Printf.sprintf "Share(%d,new)" p
  | Prim.Share (p, Prim.Current_group) -> Printf.sprintf "Share(%d,cur)" p
  | Prim.Match p -> Printf.sprintf "Match(%d)" p

let split_args inner = List.map String.trim (String.split_on_char ',' inner)

let parse_int text =
  match int_of_string_opt (String.trim text) with
  | Some i when i >= 0 -> Ok i
  | Some _ | None -> fail "bad position %S" text

let prim_of_string text =
  let text = String.trim text in
  match (String.index_opt text '(', String.rindex_opt text ')') with
  | Some i, Some j when j = String.length text - 1 && i < j ->
      let head = String.sub text 0 i in
      let args = split_args (String.sub text (i + 1) (j - i - 1)) in
      let pos1 = function
        | [ a ] -> parse_int a
        | _ -> fail "%s expects one position" head
      in
      (match (head, args) with
      | "Split", [ a; b ] ->
          let* p = parse_int a in
          let* q = parse_int b in
          Ok (Prim.Split (p, q))
      | "Merge", [ a; b ] ->
          let* p = parse_int a in
          let* s = size_of_string b in
          Ok (Prim.Merge (p, s))
      | "Shift", args ->
          let* p = pos1 args in
          Ok (Prim.Shift p)
      | "Unfold", [ a; b ] ->
          let* p = parse_int a in
          let* w = parse_int b in
          Ok (Prim.Unfold (p, w))
      | "Expand", args ->
          let* p = pos1 args in
          Ok (Prim.Expand p)
      | "Stride", [ a; b ] ->
          let* p = parse_int a in
          let* s = size_of_string b in
          Ok (Prim.Stride (p, s))
      | "Reduce", [ a ] ->
          let* s = size_of_string a in
          Ok (Prim.Reduce s)
      | "Share", [ a; "new" ] ->
          let* p = parse_int a in
          Ok (Prim.Share (p, Prim.New_group))
      | "Share", [ a; "cur" ] ->
          let* p = parse_int a in
          Ok (Prim.Share (p, Prim.Current_group))
      | "Match", args ->
          let* p = pos1 args in
          Ok (Prim.Match p)
      | head, _ -> fail "unknown primitive %S" head)
  | _, _ -> fail "malformed primitive %S" text

(* --- Whole operators -------------------------------------------------------- *)

let to_string (op : Graph.operator) =
  let shapes sizes = String.concat " " (List.map size_to_string sizes) in
  Printf.sprintf "syno-operator v1\noutput: %s\ninput: %s\ntrace: %s\n"
    (shapes op.Graph.op_output_shape)
    (shapes op.Graph.op_input_shape)
    (String.concat "; " (List.map prim_to_string op.Graph.op_trace))

type parsed = {
  output_shape : Size.t list;
  input_shape : Size.t list;
  trace : Prim.t list;
}

let parse_shape_list text =
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim text))
  in
  if tokens = [] then fail "empty shape"
  else
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        let* s = size_of_string t in
        Ok (s :: acc))
      (Ok []) tokens
    |> Result.map List.rev

let field_of_line line =
  match String.index_opt line ':' with
  | Some i ->
      Some
        ( String.trim (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  | None -> None

let parse text =
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' text))
  in
  match lines with
  | header :: rest when String.trim header = "syno-operator v1" ->
      let find key =
        match List.find_map (fun l ->
            match field_of_line l with
            | Some (k, v) when k = key -> Some v
            | Some _ | None -> None) rest
        with
        | Some v -> Ok v
        | None -> fail "missing field %S" key
      in
      let* output = find "output" in
      let* input = find "input" in
      let* trace_text = find "trace" in
      let* output_shape = parse_shape_list output in
      let* input_shape = parse_shape_list input in
      let* trace =
        List.fold_left
          (fun acc t ->
            let* acc = acc in
            let t = String.trim t in
            if t = "" then Ok acc
            else
              let* p = prim_of_string t in
              Ok (p :: acc))
          (Ok [])
          (String.split_on_char ';' trace_text)
        |> Result.map List.rev
      in
      Ok { output_shape; input_shape; trace }
  | header :: _ -> fail "unknown header %S" header
  | [] -> fail "empty operator file"

let rebuild ?allow_strided parsed =
  let* g = Graph.apply_all (Graph.init parsed.output_shape) parsed.trace in
  Graph.complete ?allow_strided g ~desired:parsed.input_shape

let of_string ?allow_strided text =
  let* parsed = parse text in
  rebuild ?allow_strided parsed

let roundtrip_exact op =
  match of_string ~allow_strided:true (to_string op) with
  | Ok op' -> Graph.operator_signature op = Graph.operator_signature op'
  | Error _ -> false

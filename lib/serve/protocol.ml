type verb = Eval | Lint | Search | Status | Ping | Drain

let verb_label = function
  | Eval -> "eval"
  | Lint -> "lint"
  | Search -> "search"
  | Status -> "status"
  | Ping -> "ping"
  | Drain -> "drain"

let verb_of_label = function
  | "eval" -> Some Eval
  | "lint" -> Some Lint
  | "search" -> Some Search
  | "status" -> Some Status
  | "ping" -> Some Ping
  | "drain" -> Some Drain
  | _ -> None

type request = { rq_id : string; rq_verb : verb; rq_params : (string * string) list }

type response =
  | Resp_ok of (string * string) list
  | Resp_error of { err_kind : string; err_detail : string; err_retry_after : float option }

let max_line = 65536

(* Percent-encoding keeps every value a single printable token, so the
   line framing never has to quote: a space, newline, '%' or any
   non-printable byte inside a value becomes %XX, uppercase hex.  The
   escapes are counted first, so the output is allocated once. *)
let plain c = c > ' ' && c <= '~' && c <> '%'
let hex_digits = "0123456789ABCDEF"

let encode s =
  let escapes = ref 0 in
  String.iter (fun c -> if not (plain c) then incr escapes) s;
  if !escapes = 0 then s
  else begin
    let out = Bytes.create (String.length s + (2 * !escapes)) in
    let j = ref 0 in
    String.iter
      (fun c ->
        if plain c then begin
          Bytes.set out !j c;
          incr j
        end
        else begin
          let code = Char.code c in
          Bytes.set out !j '%';
          Bytes.set out (!j + 1) hex_digits.[code lsr 4];
          Bytes.set out (!j + 2) hex_digits.[code land 15];
          j := !j + 3
        end)
      s;
    Bytes.unsafe_to_string out
  end

let decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else if i + 2 >= n then Error "truncated %-escape"
    else
      match (hex s.[i + 1], hex s.[i + 2]) with
      | Some h, Some l ->
          Buffer.add_char buf (Char.chr ((h * 16) + l));
          go (i + 3)
      | _ -> Error (Printf.sprintf "bad %%-escape %S" (String.sub s i 3))
  in
  go 0

let is_token s =
  String.length s > 0 && String.for_all (fun c -> c > ' ' && c <= '~' && c <> '=') s

let render_params params =
  List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (encode v)) params |> String.concat ""

let render_request r =
  Printf.sprintf "%s %s%s" r.rq_id (verb_label r.rq_verb) (render_params r.rq_params)

let render_response ~id = function
  | Resp_ok params -> Printf.sprintf "%s ok%s" id (render_params params)
  | Resp_error { err_kind; err_detail; err_retry_after } ->
      Printf.sprintf "%s error kind=%s detail=%s%s" id err_kind (encode err_detail)
        (match err_retry_after with
        | None -> ""
        | Some s -> Printf.sprintf " retry-after=%g" s)

let ( let* ) r f = Result.bind r f

(* Split "k=v" at the first '=': values may contain literal '='
   (percent-encoding only guarantees no spaces). *)
let parse_param tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "bad parameter %S (expected key=value)" tok)
  | Some i ->
      let k = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      if not (is_token k) then Error (Printf.sprintf "bad parameter key %S" k)
      else
        let* v = decode v in
        Ok (k, v)

let parse_params toks =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      let* p = parse_param tok in
      Ok (p :: acc))
    (Ok []) toks
  |> Result.map List.rev

let tokens line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun t -> t <> "")

let parse_request line =
  if String.length line > max_line then Error "line too long"
  else
    match tokens line with
    | [] -> Error "empty request"
    | [ _ ] -> Error "missing verb"
    | id :: verb :: params ->
        if not (is_token id) then Error (Printf.sprintf "bad request id %S" id)
        else
          let* verb =
            match verb_of_label verb with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "unknown verb %S" verb)
          in
          let* params = parse_params params in
          Ok { rq_id = id; rq_verb = verb; rq_params = params }

let parse_response line =
  if String.length line > max_line then Error "line too long"
  else
    match tokens line with
    | id :: "ok" :: params ->
        let* params = parse_params params in
        Ok (id, Resp_ok params)
    | id :: "error" :: params ->
        let* params = parse_params params in
        let find k = List.assoc_opt k params in
        let* kind =
          match find "kind" with Some k -> Ok k | None -> Error "error response without kind"
        in
        let detail = Option.value ~default:"" (find "detail") in
        let* retry_after =
          match find "retry-after" with
          | None -> Ok None
          | Some s -> (
              match float_of_string_opt s with
              | Some f -> Ok (Some f)
              | None -> Error (Printf.sprintf "bad retry-after %S" s))
        in
        Ok (id, Resp_error { err_kind = kind; err_detail = detail; err_retry_after = retry_after })
    | _ -> Error (Printf.sprintf "bad response line %S" line)

let param r key =
  (* Last occurrence wins so callers can layer overrides. *)
  List.fold_left (fun acc (k, v) -> if k = key then Some v else acc) None r.rq_params

let int_param r key ~default =
  match param r key with
  | None -> Ok default
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "parameter %s: expected an integer, got %S" key s))

let float_param r key ~default =
  match param r key with
  | None -> Ok default
  | Some s -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Ok v
      | Some _ -> Error (Printf.sprintf "parameter %s: must be finite" key)
      | None -> Error (Printf.sprintf "parameter %s: expected a number, got %S" key s))

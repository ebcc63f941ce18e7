(** The daemon's newline-framed wire protocol.

    One request per line, one response per line, over a Unix-domain
    stream socket.  The framing is deliberately primitive — a line of
    space-separated tokens — so a client is three syscalls in any
    language and a human can drive the daemon with [nc -U].

    {v
    request  ::= id SP verb (SP key "=" value)* NL
    response ::= id SP "ok" (SP key "=" value)* NL
               | id SP "error" SP "kind=" label SP "detail=" value
                 (SP "retry-after=" seconds)? NL
    v}

    [id] is an opaque client-chosen token echoed back verbatim, so a
    client may pipeline requests on one connection and match responses
    out of order.  Values are percent-encoded ({!encode}), which makes
    every value a single token: operator traces, lint findings and
    error details travel unambiguously inside one line. *)

type verb = Eval | Lint | Search | Status | Ping | Drain

val verb_of_label : string -> verb option

type request = {
  rq_id : string;  (** client-chosen, echoed in the response *)
  rq_verb : verb;
  rq_params : (string * string) list;  (** decoded key/value pairs *)
}

type response =
  | Resp_ok of (string * string) list
  | Resp_error of {
      err_kind : string;  (** stable label, e.g. [timeout], [overloaded] *)
      err_detail : string;
      err_retry_after : float option;
          (** seconds after which a shed request is worth retrying *)
    }

val max_line : int
(** Upper bound on one framed line (64 KiB).  The server drops
    connections that exceed it mid-line — unbounded buffering on a
    never-terminated line is an OOM vector, not a protocol error. *)

val encode : string -> string
(** Percent-encode: ['%'] and every byte outside the printable
    non-space ASCII range becomes [%XX], in uppercase hex.  A string
    with no such byte is returned as is.  {!decode} inverts it. *)

val decode : string -> (string, string) result

val is_token : string -> bool
(** Whether the string is safe to emit unencoded (nonempty, printable
    ASCII, no spaces, no ['=']): the requirement on ids and keys. *)

val render_request : request -> string
(** The wire line, without the trailing newline. *)

val parse_request : string -> (request, string) result

val render_response : id:string -> response -> string

val parse_response : string -> (string * response, string) result
(** Returns [(id, response)]. *)

val param : request -> string -> string option
(** Last occurrence wins, so a client can override defaults by
    appending. *)

val int_param : request -> string -> default:int -> (int, string) result
val float_param : request -> string -> default:float -> (float, string) result
(** Reject junk and non-finite values with a message naming the key. *)

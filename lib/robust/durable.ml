let ( let* ) r f = Result.bind r f

type error =
  | Io of string
  | Bad_header of string
  | Truncated of { expected : int; found : int }
  | Corrupt of string

type 'a codec = {
  header : string;
  noun : string;
  render : Buffer.t -> 'a -> unit;
  parse : string -> string list -> ('a, error) result;
  order : ('a -> 'a -> int) option;
}

let codec ~header ~noun ~render ~parse ?order () = { header; noun; render; parse; order }

let string_of_error c = function
  | Io msg -> Printf.sprintf "cannot read %s: %s" c.noun msg
  | Bad_header line -> Printf.sprintf "bad %s header %S (expected %S)" c.noun line c.header
  | Truncated { expected; found } ->
      Printf.sprintf "truncated %s: header declares %d entries, found %d" c.noun expected found
  | Corrupt msg -> Printf.sprintf "corrupt %s: %s" c.noun msg

(* --- Framing ---------------------------------------------------------------- *)

let to_string c entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf c.header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "entries: %d\n" (List.length entries));
  List.iter (c.render buf) entries;
  Buffer.contents buf

let is_entry line =
  let l = String.trim line in
  String.length l >= 6 && String.sub l 0 6 = "entry:"

let count_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "entries:"; n ] -> int_of_string_opt n
  | _ -> None

(* Group lines into (entry line, continuation lines) blocks; lines
   before the first [entry:] (the count, blanks) belong to no entry. *)
let blocks lines =
  let close acc = function None -> acc | Some (head, rev) -> (head, List.rev rev) :: acc in
  let rec go acc current = function
    | [] -> List.rev (close acc current)
    | line :: rest when is_entry line -> go (close acc current) (Some (line, [])) rest
    | line :: rest -> (
        match current with
        | None -> go acc None rest
        | Some (head, rev) -> go acc (Some (head, line :: rev)) rest)
  in
  go [] None lines

let of_string c text =
  match String.split_on_char '\n' text with
  | [] | [ "" ] -> Error (Corrupt ("empty " ^ c.noun))
  | first :: rest -> (
      if String.trim first <> c.header then Error (Bad_header first)
      else
        let* entries =
          List.fold_left
            (fun acc (head, block) ->
              let* acc = acc in
              let* e = c.parse head block in
              Ok (e :: acc))
            (Ok []) (blocks rest)
        in
        let found = List.length entries in
        (* A snapshot is written atomically, so any mismatch means the
           file was cut or edited after the fact: refuse it rather than
           resume from silently different data.  Writers always emit
           the count line and a final newline, so a cut anywhere lands
           in one of these checks. *)
        match List.find_map count_line rest with
        | Some expected when expected <> found -> Error (Truncated { expected; found })
        | _ when text.[String.length text - 1] <> '\n' ->
            Error (Corrupt "no final newline (file cut short)")
        | None -> Error (Corrupt "no \"entries:\" count line")
        | Some _ -> (
            let entries = List.rev entries in
            match c.order with None -> Ok entries | Some cmp -> Ok (List.sort cmp entries)))

(* --- Files ------------------------------------------------------------------- *)

(* Without the fsync before the rename, a crash between rename and
   writeback could leave the new name pointing at truncated data.  The
   directory fsync (making the rename itself durable) is best-effort:
   some filesystems refuse fsync on a directory fd. *)
let write_atomic ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length data in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd data !written (n - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
      (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
      (try Unix.close dirfd with Unix.Unix_error _ -> ())

let save c ~path entries = write_atomic ~path (to_string c entries)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | text -> Ok text
          | exception (Sys_error msg) -> Error (Io msg)
          | exception End_of_file -> Error (Io "file shrank while being read")))

let load c ~path = Result.bind (read_file path) (of_string c)

type open_report = { or_loaded : int; or_quarantined : (string * error) option }

let open_file ?(readonly = false) c path =
  if not (Sys.file_exists path) then ([], { or_loaded = 0; or_quarantined = None })
  else
    match load c ~path with
    | Ok entries -> (entries, { or_loaded = List.length entries; or_quarantined = None })
    | Error err ->
        (* Quarantine, never die: a damaged file costs its contents, not
           the run that would regrow them.  If the move is skipped or
           fails, the report names where the file really is. *)
        let quarantine = path ^ ".corrupt" in
        let where =
          if readonly then path
          else
            match Sys.rename path quarantine with
            | () -> quarantine
            | exception Sys_error _ -> path
        in
        ([], { or_loaded = 0; or_quarantined = Some (where, err) })

let warn_quarantine c ~prefix ~path report =
  Option.iter
    (fun (where, err) ->
      Printf.eprintf "%sdamaged %s %s %s (%s)\n%!" prefix c.noun path
        (if where = path then "left in place" else "quarantined to " ^ where)
        (string_of_error c err))
    report.or_quarantined

let shard_path ~base ~shard_id = Printf.sprintf "%s.shard%d" base shard_id

type 'a merged = {
  mg_entries : 'a list;
  mg_duplicates : int;
  mg_loaded : int list;
  mg_missing : int list;
  mg_quarantined : (int * error) list;
}

let merge_shards c ~merge ~base ~shards =
  let loaded, missing, quarantined =
    List.fold_left
      (fun (loaded, missing, quarantined) id ->
        let path = shard_path ~base ~shard_id:id in
        if not (Sys.file_exists path) then (loaded, id :: missing, quarantined)
        else
          match load c ~path with
          | Ok entries -> ((id, entries) :: loaded, missing, quarantined)
          | Error err -> (loaded, missing, (id, err) :: quarantined))
      ([], [], []) (List.init shards Fun.id)
  in
  let lists = List.rev_map snd loaded in
  let entries = merge lists in
  {
    mg_entries = entries;
    mg_duplicates =
      List.fold_left (fun n l -> n + List.length l) 0 lists - List.length entries;
    mg_loaded = List.rev_map fst loaded;
    mg_missing = List.rev missing;
    mg_quarantined = List.rev quarantined;
  }

(* --- Write cadence ----------------------------------------------------------- *)

(* Two locks share a writer.  [w_changes] is the owning store's: it
   changes only under the store's lock, where snapshots are taken.
   [w_mutex] serializes writes; [w_saved] and [w_writes] change only
   under it, and [w_taken] is lowered under it when a write fails, so
   the store side reads those three as atomics. *)
type 'a writer = {
  w_codec : 'a codec;
  w_path : string;
  w_every : int;
  w_mutex : Mutex.t;
  mutable w_changes : int;  (* changes counted: the next snapshot's generation *)
  w_taken : int Atomic.t;  (* generation of the newest snapshot the cadence took *)
  w_saved : int Atomic.t;  (* generation on disk; -1 before the first save *)
  w_writes : int Atomic.t;
}

type 'a snapshot = { sn_writer : 'a writer; sn_gen : int; sn_entries : 'a list }

let writer c ~path ~every =
  {
    w_codec = c;
    w_path = path;
    w_every = max 1 every;
    w_mutex = Mutex.create ();
    w_changes = 0;
    w_taken = Atomic.make 0;
    w_saved = Atomic.make (-1);
    w_writes = Atomic.make 0;
  }

let take w entries =
  Atomic.set w.w_taken w.w_changes;
  Some { sn_writer = w; sn_gen = w.w_changes; sn_entries = entries () }

let mark w = w.w_changes <- w.w_changes + 1

(* The cadence counts from the newest snapshot taken, so a worker does
   not retake one another worker is still writing; [sync] and [flush]
   count from the one on disk, so their caller returns only once what
   it asked for is saved. *)
let note w entries =
  mark w;
  if w.w_changes - Atomic.get w.w_taken >= w.w_every then take w entries else None

let sync w entries =
  if w.w_changes > max 0 (Atomic.get w.w_saved) then take w entries else None

let flush w entries = if w.w_changes > Atomic.get w.w_saved then take w entries else None

(* A snapshot no newer than the one on disk is skipped: it is already
   covered.  A failed save lowers [w_taken] to what is on disk, so its
   changes stay pending and the next change retries. *)
let write s =
  let w = s.sn_writer in
  Mutex.protect w.w_mutex (fun () ->
      if s.sn_gen > Atomic.get w.w_saved then begin
        (try save w.w_codec ~path:w.w_path s.sn_entries
         with e ->
           Atomic.set w.w_taken (Atomic.get w.w_saved);
           raise e);
        Atomic.set w.w_saved s.sn_gen;
        Atomic.incr w.w_writes
      end)

let writes w = Atomic.get w.w_writes

let update lock f =
  let result, snapshot = Mutex.protect lock f in
  Option.iter write snapshot;
  result

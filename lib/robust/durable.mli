(** One durable-file store for every snapshot the system persists: the
    search checkpoint, the counterexample corpus and the serve cache.

    A store file is text:
    {v
    <header>
    entries: N
    entry: ...          one line per entry,
    ...                 then that entry's continuation lines
    entry: ...
    v}
    Clients supply only the entry codec (render one entry; parse one
    [entry:] line with its continuation lines).  This module owns the
    framing, the crash-safe write, the typed load, quarantine of a
    damaged file, the per-shard file name, load and merge report, and
    the write cadence.

    {b Writes} are atomic and durable: one render into a buffer, one
    write loop to [path ^ ".tmp"], fsync, rename over [path], and a
    best-effort fsync of the directory.  A kill at any instant leaves
    either the previous snapshot or the new one.

    {b Loads} are typed and refuse any file that is not exactly what
    a writer produced, checked in this order: empty file ([Corrupt]),
    wrong first line ([Bad_header]), an entry that fails to parse
    ([Corrupt]), an [entries:] count that disagrees with the entries
    present ([Truncated]), a file that does not end in a newline
    ([Corrupt]), a file with no [entries:] line ([Corrupt]).  Every
    writer emits both of the last two, so a snapshot cut at any byte
    offset either loads the identical entries or is refused. *)

type error =
  | Io of string  (** the file cannot be opened or read *)
  | Bad_header of string  (** the first line is not the format's header *)
  | Truncated of { expected : int; found : int }
      (** the [entries:] count disagrees with the entries present *)
  | Corrupt of string  (** anything else that is not a writer's output *)

type 'a codec
(** One file format: its header line, its noun for messages, and how
    one entry is rendered and parsed. *)

val codec :
  header:string ->
  noun:string ->
  render:(Buffer.t -> 'a -> unit) ->
  parse:(string -> string list -> ('a, error) result) ->
  ?order:('a -> 'a -> int) ->
  unit ->
  'a codec
(** [render buf e] appends [e]'s [entry:] line and its continuation
    lines, each ending in ['\n'].  [parse line block] rebuilds an
    entry from its [entry:] line and its continuation lines (without
    newlines).  Loads return entries sorted by [order], or in file
    order when it is absent.  [noun] names the format in messages
    ("checkpoint", "corpus", ...). *)

val string_of_error : 'a codec -> error -> string
(** One line, e.g. ["truncated corpus: header declares 3 entries, found 2"]. *)

val to_string : 'a codec -> 'a list -> string
val of_string : 'a codec -> string -> ('a list, error) result
val save : 'a codec -> path:string -> 'a list -> unit
val load : 'a codec -> path:string -> ('a list, error) result

(** {1 Opening with quarantine} *)

type open_report = {
  or_loaded : int;  (** entries restored from an existing file *)
  or_quarantined : (string * error) option;
      (** set when the existing file was damaged: where it now is (its
          [<path>.corrupt] name, or the original path when it was not
          moved) and why it failed to load *)
}

val open_file : ?readonly:bool -> 'a codec -> string -> 'a list * open_report
(** Load [path] for a store that will keep writing it.  A missing file
    is empty.  A damaged file is renamed to [<path>.corrupt] and the
    store starts empty — never fatal.  [readonly] (default [false])
    leaves a damaged file in place. *)

val warn_quarantine : 'a codec -> prefix:string -> path:string -> open_report -> unit
(** When [report] quarantined the file at [path], print one line on
    stderr, [prefix] first: where the damaged file went (or that it was
    left in place) and why.  Silent for a clean open. *)

(** {1 Sharded files} *)

val shard_path : base:string -> shard_id:int -> string
(** [base ^ ".shard<i>"]: every shard of a sharded run writes its
    private file of each format next to the merged file's [base]. *)

type 'a merged = {
  mg_entries : 'a list;  (** what [merge] made of the loaded shards *)
  mg_duplicates : int;  (** entries loaded minus entries merged *)
  mg_loaded : int list;  (** shards whose file loaded, in shard order *)
  mg_missing : int list;  (** shards with no file *)
  mg_quarantined : (int * error) list;
      (** shards whose file failed the typed load; skipped and left in
          place *)
}

val merge_shards :
  'a codec -> merge:('a list list -> 'a list) -> base:string -> shards:int -> 'a merged
(** Load {!shard_path}[ ~base ~shard_id] for every shard id in
    [[0, shards)] and hand the entry lists that loaded, in shard order,
    to [merge] (the format's dedup policy).  Never raises on damaged
    files. *)

(** {1 Write cadence}

    A file-backed store writes in two steps, so that rendering and
    writing a snapshot never happen under the store's own lock:

    {ol
    {- {b Under the store's lock}, count the change with {!note} (or
       {!mark}, then {!sync}; or {!flush}).  When a write is due, the
       call takes the store's entry list, stamped with a generation
       (the number of changes counted so far), and returns it.  This
       costs the [entries] thunk: one fold and one sort.}
    {- {b After releasing the lock}, pass what was returned to
       {!write}, on the same thread.  The writer's own mutex serializes
       writes, and a snapshot no newer than the one already saved is
       skipped, so a slow older write never replaces a newer file.}}

    When {!write} returns, a snapshot at least as new as the one it was
    given is on disk.  Entries must be immutable: the list is rendered
    after the store's lock is released.

    {b What a SIGKILL can lose}: the changes counted since the last
    completed write, which is at most [every - 1] changes plus those
    made while a write was in flight.  The file itself is always either
    the previous snapshot or the new one. *)

type 'a writer
(** A file-backed store's write schedule.  {!note}, {!mark}, {!sync}
    and {!flush} must be called under the owning store's lock;
    {!write} and {!writes} must not need it. *)

type 'a snapshot
(** A store's entries taken under its lock, stamped with a generation,
    waiting for {!write}. *)

val writer : 'a codec -> path:string -> every:int -> 'a writer
(** Rewrite [path] after every [every] changes (clamped to >= 1). *)

val note : 'a writer -> (unit -> 'a list) -> 'a snapshot option
(** Count one change; when [every] changes have been counted since the
    newest snapshot taken, take one from the thunk. *)

val mark : 'a writer -> unit
(** Count one change without taking a snapshot; see {!sync}. *)

val sync : 'a writer -> (unit -> 'a list) -> 'a snapshot option
(** Take a snapshot if any change is not yet on disk. *)

val flush : 'a writer -> (unit -> 'a list) -> 'a snapshot option
(** Take a snapshot if any change is not yet on disk or nothing was
    ever written, so the file exists once the snapshot is written. *)

val write : 'a snapshot -> unit
(** Save the snapshot atomically ({!save}) unless a newer or equal one
    is already saved.  A failed save raises, and leaves its changes
    pending: the next {!note} past the cadence, {!sync} or {!flush}
    takes them again. *)

val writes : 'a writer -> int
(** Snapshots saved so far. *)

val update : Mutex.t -> (unit -> 'b * 'a snapshot option) -> 'b
(** The recipe in one call: [update lock f] runs [f] under the store's
    [lock], releases it, then writes the snapshot [f] took, if any. *)

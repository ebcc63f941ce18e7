module Cancel = Robust.Cancel

type ctx = {
  assignment : Shard.assignment;
  attempt : int;
  forked : bool;
  beat : unit -> unit;
  cancel : Cancel.t;
}

type config = {
  shards : int;
  workers : int;
  heartbeat_timeout : float;
  shard_deadline : float option;
  max_restarts : int;
  backoff : float;
  grace : float;
}

let default_config ?(shards = 2) () =
  {
    shards = max 1 shards;
    workers = max 1 shards;
    heartbeat_timeout = 10.0;
    shard_deadline = None;
    max_restarts = 2;
    backoff = 0.05;
    grace = 2.0;
  }

type status = Done | Interrupted | Failed of string

type shard_report = { sh_id : int; sh_status : status; sh_attempts : int; sh_kills : int }

type report = { rp_shards : shard_report list; rp_restarts : int; rp_interrupted : bool }

(* A shard waiting (again) for a worker slot. *)
type task = { t_shard : int; t_attempt : int; t_not_before : float }

(* A live forked worker. *)
type worker = {
  w_pid : int;
  w_shard : int;
  w_attempt : int;
  w_fd : Unix.file_descr;  (* read end of the heartbeat pipe *)
  mutable w_last_beat : float;
  w_started : float;
  mutable w_killed : bool;  (* supervisor already SIGKILLed it *)
}

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_nohang pid
  | r -> r

let kill_quiet pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* --- The forked-worker body ------------------------------------------------ *)

(* Runs in the child; never returns.  [Unix._exit] skips [at_exit] and
   stdio flushing so inherited buffers are not written twice. *)
let child_main ~assignment ~attempt ~body ~write_fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let token = Cancel.create () in
  let trip _ = Cancel.cancel ~reason:"shutdown signal" token in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle trip);
  Sys.set_signal Sys.sigint (Sys.Signal_handle trip);
  (* Heartbeats are rate-limited and non-blocking: a stalled coordinator
     must never wedge a healthy worker on a full pipe. *)
  (try Unix.set_nonblock write_fd with Unix.Unix_error _ -> ());
  let last = ref 0.0 in
  let byte = Bytes.make 1 'b' in
  let beat () =
    let now = Unix.gettimeofday () in
    if now -. !last >= 0.02 then begin
      last := now;
      try ignore (Unix.write write_fd byte 0 1) with Unix.Unix_error _ -> ()
    end
  in
  beat ();
  let code =
    try
      body { assignment; attempt; forked = true; beat; cancel = token };
      if Cancel.is_cancelled token then 130 else 0
    with
    | Cancel.Cancelled _ -> 130
    | exn ->
        (try
           Printf.eprintf "syno shard %d worker: %s\n%!" assignment.Shard.shard_id
             (Printexc.to_string exn)
         with _ -> ());
        70
  in
  Unix._exit code

(* --- Supervision ----------------------------------------------------------- *)

let run ?(config = default_config ()) ?cancel ~base ~seed ~body () =
  let cancel = match cancel with Some c -> c | None -> Cancel.create () in
  let shards = max 1 config.shards in
  let workers_max = max 1 config.workers in
  let assignment = Array.init shards (fun i -> Shard.make ~base ~seed ~shards ~shard_id:i) in
  let attempts = Array.make shards 0 in
  let kills = Array.make shards 0 in
  let final : status option array = Array.make shards None in
  let restarts = ref 0 in
  let interrupted = ref false in
  let pending = ref (List.init shards (fun i -> { t_shard = i; t_attempt = 0; t_not_before = 0.0 })) in
  let running : worker list ref = ref [] in

  let spawn task =
    let rfd, wfd = Unix.pipe () in
    (* A failed fork must not leak the pipe: over enough restart cycles
       (EAGAIN under fork pressure) the coordinator would exhaust its fd
       table and take every future spawn down with it. *)
    let fork () =
      try Unix.fork ()
      with e ->
        (try Unix.close rfd with Unix.Unix_error _ -> ());
        (try Unix.close wfd with Unix.Unix_error _ -> ());
        raise e
    in
    match fork () with
    | 0 ->
        (* Child: drop every coordinator-side fd we inherited — the read
           end of our own pipe and the read ends of every sibling. *)
        (try Unix.close rfd with Unix.Unix_error _ -> ());
        List.iter (fun wk -> try Unix.close wk.w_fd with Unix.Unix_error _ -> ()) !running;
        child_main ~assignment:assignment.(task.t_shard) ~attempt:task.t_attempt ~body
          ~write_fd:wfd
    | pid ->
        (try Unix.close wfd with Unix.Unix_error _ -> ());
        attempts.(task.t_shard) <- attempts.(task.t_shard) + 1;
        let now = Unix.gettimeofday () in
        running :=
          {
            w_pid = pid;
            w_shard = task.t_shard;
            w_attempt = task.t_attempt;
            w_fd = rfd;
            w_last_beat = now;
            w_started = now;
            w_killed = false;
          }
          :: !running
  in

  let start_ready () =
    let now = Unix.gettimeofday () in
    let rec go () =
      if List.length !running < workers_max then
        let ready, waiting = List.partition (fun t -> t.t_not_before <= now) !pending in
        match List.sort (fun a b -> compare a.t_shard b.t_shard) ready with
        | [] -> ()
        | t :: rest ->
            pending := rest @ waiting;
            spawn t;
            go ()
    in
    go ()
  in

  let retire wk outcome =
    (try Unix.close wk.w_fd with Unix.Unix_error _ -> ());
    running := List.filter (fun w -> w != wk) !running;
    match outcome with
    | `Done -> final.(wk.w_shard) <- Some Done
    | `Interrupted -> final.(wk.w_shard) <- Some Interrupted
    | `Failed reason ->
        if Cancel.is_cancelled cancel then final.(wk.w_shard) <- Some Interrupted
        else if wk.w_attempt < config.max_restarts then begin
          incr restarts;
          let delay = config.backoff *. (2.0 ** float_of_int wk.w_attempt) in
          pending :=
            {
              t_shard = wk.w_shard;
              t_attempt = wk.w_attempt + 1;
              t_not_before = Unix.gettimeofday () +. max 0.0 delay;
            }
            :: !pending
        end
        else final.(wk.w_shard) <- Some (Failed reason)
  in

  let reap () =
    List.iter
      (fun wk ->
        match waitpid_nohang wk.w_pid with
        | 0, _ -> ()
        | _, Unix.WEXITED 0 -> retire wk `Done
        | _, Unix.WEXITED 130 -> retire wk `Interrupted
        | _, Unix.WEXITED code -> retire wk (`Failed (Printf.sprintf "exit %d" code))
        | _, Unix.WSIGNALED s -> retire wk (`Failed (Printf.sprintf "signal %d" s))
        | _, Unix.WSTOPPED _ -> ())
      (List.filter (fun _ -> true) !running)
  in

  let drain timeout =
    match !running with
    | [] -> if timeout > 0.0 then Unix.sleepf timeout
    | workers -> (
        let fds = List.map (fun wk -> wk.w_fd) workers in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | ready, _, _ ->
            let now = Unix.gettimeofday () in
            let buf = Bytes.create 256 in
            List.iter
              (fun fd ->
                match Unix.read fd buf 0 256 with
                | exception Unix.Unix_error _ -> ()
                | 0 -> ()  (* EOF: writer exited; [reap] collects it *)
                | _ -> (
                    match List.find_opt (fun wk -> wk.w_fd = fd) !running with
                    | Some wk -> wk.w_last_beat <- now
                    | None -> ()))
              ready)
  in

  let monitor () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun wk ->
        if not wk.w_killed then
          let silent =
            config.heartbeat_timeout > 0.0
            && now -. wk.w_last_beat > config.heartbeat_timeout
          in
          let overdue =
            match config.shard_deadline with
            | Some d -> now -. wk.w_started > d
            | None -> false
          in
          if silent || overdue then begin
            wk.w_killed <- true;
            kills.(wk.w_shard) <- kills.(wk.w_shard) + 1;
            kill_quiet wk.w_pid Sys.sigkill
          end)
      !running
  in

  let cascade () =
    List.iter (fun wk -> kill_quiet wk.w_pid Sys.sigterm) !running;
    let deadline = Unix.gettimeofday () +. max 0.0 config.grace in
    while !running <> [] && Unix.gettimeofday () < deadline do
      drain 0.05;
      reap ()
    done;
    List.iter (fun wk -> kill_quiet wk.w_pid Sys.sigkill) !running;
    let tries = ref 200 in
    while !running <> [] && !tries > 0 do
      decr tries;
      Unix.sleepf 0.02;
      reap ()
    done;
    (* Anything not reaped in time, and every shard that never resolved,
       is interrupted: its checkpoint (if any) still merges afterwards. *)
    List.iter (fun wk -> retire wk `Interrupted) (List.filter (fun _ -> true) !running);
    Array.iteri (fun i f -> if f = None then final.(i) <- Some Interrupted) final
  in

  let all_done () = Array.for_all Option.is_some final in
  while not (all_done ()) do
    if Cancel.is_cancelled cancel then begin
      interrupted := true;
      cascade ()
    end
    else begin
      start_ready ();
      drain 0.05;
      reap ();
      monitor ()
    end
  done;

  {
    rp_shards =
      List.init shards (fun i ->
          {
            sh_id = i;
            sh_status = (match final.(i) with Some s -> s | None -> Interrupted);
            sh_attempts = attempts.(i);
            sh_kills = kills.(i);
          });
    rp_restarts = !restarts;
    rp_interrupted = !interrupted;
  }

let run_inline ?(config = default_config ()) ?cancel ~base ~seed ~body () =
  let cancel = match cancel with Some c -> c | None -> Cancel.create () in
  let shards = max 1 config.shards in
  let assignments = List.init shards (fun i -> Shard.make ~base ~seed ~shards ~shard_id:i) in
  let shard_reports =
    List.map
      (fun (a : Shard.assignment) ->
        if Cancel.is_cancelled cancel then
          { sh_id = a.Shard.shard_id; sh_status = Interrupted; sh_attempts = 0; sh_kills = 0 }
        else
          let token = Cancel.create ~parent:cancel () in
          let status =
            try
              body
                {
                  assignment = a;
                  attempt = 0;
                  forked = false;
                  beat = (fun () -> ());
                  cancel = token;
                };
              if Cancel.is_cancelled cancel then Interrupted else Done
            with
            | Cancel.Cancelled _ -> Interrupted
            | exn -> Failed (Printexc.to_string exn)
          in
          { sh_id = a.Shard.shard_id; sh_status = status; sh_attempts = 1; sh_kills = 0 })
      assignments
  in
  { rp_shards = shard_reports; rp_restarts = 0; rp_interrupted = Cancel.is_cancelled cancel }

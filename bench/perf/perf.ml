(* The committed benchmark: four seeded workloads, each in its own
   process; end-to-end metrics come from untraced runs, per-layer metrics
   from a separate traced run.  See README.md.

     perf.exe run --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR] [--label L]
     perf.exe all [--seed S] [--seconds N] [--smoke] [--out DIR]
     perf.exe agree A.jsonl B.jsonl | perf.exe agree AB.jsonl
     perf.exe spec

   [run] prints one JSON result as the last line of its standard output,
   appends a record to <out>/runs.jsonl and, when traced, writes
   <out>/trace-W-S.json (Chrome trace-event format; Perfetto opens it). *)

let usage () =
  prerr_endline
    "usage: perf.exe run --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR] [--label L]\n\
    \       perf.exe all [--seed S] [--seconds N] [--smoke] [--out DIR]\n\
    \       perf.exe agree A.jsonl B.jsonl | perf.exe agree AB.jsonl\n\
    \       perf.exe spec";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

(* --- Arguments ----------------------------------------------------------------- *)

type args = { positional : string list; opts : (string * string) list; smoke : bool }

let parse_args argv =
  let rec go a = function
    | [] -> { a with positional = List.rev a.positional }
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
        go { a with opts = (String.sub flag 2 (String.length flag - 2), v) :: a.opts } rest
    | [ flag ] when String.starts_with ~prefix:"--" flag -> fail "%s needs a value" flag
    | p :: rest -> go { a with positional = p :: a.positional } rest
  in
  go { positional = []; opts = []; smoke = false } argv

let opt a k = List.assoc_opt k a.opts

let number a k parse default =
  match opt a k with
  | None -> default
  | Some v -> ( match parse v with Some n -> n | None -> fail "--%s: bad value %S" k v)

let default_out = Filename.concat "bench" (Filename.concat "perf" "out")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- run ------------------------------------------------------------------------ *)

let runner = function
  | "search" -> Wl_search.run
  | "serve-cold" -> Wl_serve.run_cold
  | "serve-hot" -> Wl_serve.run_hot
  | "kernel" -> Wl_kernel.run
  | w -> fail "unknown workload %S (one of: %s)" w (String.concat " " Spec.workload_names)

let command_output cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None

(* The commit being measured, when the working directory is the root of
   a git checkout. *)
let git_state () =
  if not (Sys.file_exists ".git") then (Json.Null, Json.Null)
  else
    ( Option.fold ~none:Json.Null ~some:(fun c -> Json.String c) (command_output "git rev-parse HEAD"),
      Option.fold ~none:Json.Null
        ~some:(fun s -> Json.Bool (s <> ""))
        (command_output "git status --porcelain --untracked-files=no") )

let metrics_json ?(samples = false) ms =
  Json.Object
    (List.map
       (fun ((m : Spec.metric), (v : Work.metric)) ->
         ( m.Spec.name,
           Json.Object
             ([ ("value", Json.Number v.Work.value); ("unit", Json.String m.Spec.unit) ]
             @ if samples then [ ("samples", Json.Number (float_of_int v.Work.samples)) ] else []) ))
       ms)

let zero (m : Spec.metric) = Work.metric ~samples:0 m.Spec.name 0.0

let run a =
  let workload = Option.value ~default:"" (opt a "workload") in
  let run_workload = runner workload in
  let traced =
    match opt a "trace" with None | Some "0" -> false | Some "1" -> true | Some v -> fail "--trace: 0 or 1, not %S" v
  in
  let seed = number a "seed" int_of_string_opt 1 in
  let seconds = number a "seconds" float_of_string_opt (float_of_int Spec.run_seconds) in
  if not (seconds > 0.0) then fail "--seconds must be positive";
  let out = Option.value ~default:default_out (opt a "out") in
  mkdir_p out;
  let ctx = { Work.workload; seed; seconds; smoke = a.smoke; trace = Trace.create ~on:traced; out } in
  let started = Unix.gettimeofday () in
  let o = run_workload ctx in
  let measured = List.map (fun (m : Work.metric) -> (m.Work.name, m)) o.Work.metrics in
  (* Untraced runs report every end-to-end metric, traced runs every
     per-layer one: those this workload does not reach read 0. *)
  let wanted = if traced then Spec.per_layer else Spec.end_to_end in
  let problems = ref [] in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name measured with
        | Some v when Float.is_finite v.Work.value -> (m, v)
        | Some _ ->
            problems := (m.Spec.name ^ " is not finite") :: !problems;
            (m, zero m)
        | None when traced && not (Spec.measures workload m) -> (m, zero m)
        | None ->
            problems := (m.Spec.name ^ " was not measured") :: !problems;
            (m, zero m))
      wanted
  in
  List.iter
    (fun (m : Work.metric) ->
      if not (List.exists (fun (s : Spec.metric) -> s.Spec.name = m.Work.name) (Spec.end_to_end @ Spec.per_layer))
      then
        problems := (m.Work.name ^ " is measured but not declared") :: !problems)
    o.Work.metrics;
  if !problems <> [] then fail "%s: %s" workload (String.concat "; " (List.rev !problems));
  let c = o.Work.checks in
  let correct = c.Work.failed = 0 in
  List.iter (fun why -> Printf.eprintf "perf: %s: FAILED %s\n" workload why) (List.rev c.Work.why);
  List.iter
    (fun ((m : Spec.metric), (v : Work.metric)) ->
      if v.Work.samples > 0 then
        Printf.eprintf "perf: %-10s %-44s %14.6g %-5s (n=%d)\n" workload m.Spec.name v.Work.value m.Spec.unit
          v.Work.samples)
    metrics;
  if traced then begin
    let path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed) in
    Trace.write ctx.Work.trace ~path
      ~meta:[ ("workload", Json.String workload); ("seed", Json.Number (float_of_int seed)) ];
    Printf.eprintf "perf: trace written to %s\n" path
  end;
  let commit, dirty = git_state () in
  let record =
    Json.Object
      [
        ("label", Json.String (Option.value ~default:"" (opt a "label")));
        ("commit", commit);
        ("dirty", dirty);
        ( "host",
          Json.Object
            [
              ("nproc", Json.Number (float_of_int (Domain.recommended_domain_count ())));
              ("ocaml", Json.String Sys.ocaml_version);
            ] );
        ("time", Json.Number (Float.round started));
        ("workload", Json.String workload);
        ("seed", Json.Number (float_of_int seed));
        ("seconds", Json.Number seconds);
        ("trace", Json.Bool traced);
        ("smoke", Json.Bool a.smoke);
        ("sizes", Json.Object o.Work.sizes);
        ("correct", Json.Bool correct);
        ("attempted", Json.Number (float_of_int c.Work.attempted));
        ("failed", Json.Number (float_of_int c.Work.failed));
        ("metrics", metrics_json ~samples:true metrics);
      ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 (Filename.concat out "runs.jsonl")
    (fun oc -> output_string oc (Json.to_string record ^ "\n"));
  print_endline
    (Json.to_string
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Number (float_of_int (max 1 c.Work.attempted)));
            ("failed", Json.Number (float_of_int c.Work.failed));
            ("metrics", metrics_json metrics);
          ]))

(* --- all ------------------------------------------------------------------------- *)

(* Every workload untraced and traced, each in its own process.  Fails
   when BENCHMARK.json differs from [Spec], when a run fails or is not
   correct, or when a run prints other metrics than BENCHMARK.json
   declares. *)
let all a =
  let problems = ref (Option.to_list (Spec.check "BENCHMARK.json")) in
  let passthrough =
    List.concat_map (fun k -> match opt a k with Some v -> [ "--" ^ k; v ] | None -> []) [ "seed"; "seconds"; "out" ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let what = Printf.sprintf "%s (trace %s)" w traced in
          let problem m = problems := (what ^ ": " ^ m) :: !problems in
          let t0 = Unix.gettimeofday () in
          let cmd =
            Filename.quote_command Sys.executable_name
              ([ "run"; "--workload"; w; "--trace"; traced ] @ passthrough)
          in
          let ic = Unix.open_process_in cmd in
          let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
          (match (Unix.close_process_in ic, List.rev lines) with
          | Unix.WEXITED 0, last :: _ -> (
              match Json.parse last with
              | exception Json.Parse_error e -> problem ("the result line is not JSON: " ^ e)
              | j ->
                  if Json.member "correct" j <> Some (Json.Bool true) then problem "not correct";
                  let printed =
                    match Json.member "metrics" j with
                    | Some (Json.Object ms) ->
                        List.map (fun (n, v) -> (n, Option.bind (Json.member "unit" v) Json.to_str)) ms
                    | _ -> []
                  in
                  let declared =
                    List.map
                      (fun (m : Spec.metric) -> (m.Spec.name, Some m.Spec.unit))
                      (if traced = "1" then Spec.per_layer else Spec.end_to_end)
                  in
                  if printed <> declared then problem "the printed metrics differ from BENCHMARK.json")
          | _ -> problem "exited abnormally");
          Printf.eprintf "perf all: %-24s %5.1fs\n%!" what (Unix.gettimeofday () -. t0))
        [ "0"; "1" ])
    Spec.workload_names;
  List.iter (fun p -> Printf.eprintf "perf all: %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

(* --- agree ----------------------------------------------------------------------- *)

let read_records path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> fail "%s" e
  | text ->
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun l -> try Json.parse l with Json.Parse_error e -> fail "%s: %s" path e)

let field k r = Option.bind (Json.member k r) Json.to_str

(* Two sets of untraced runs agree when, on every workload, every
   end-to-end metric's medians differ by no more than its bound.  One
   file argument is split by the records' two labels. *)
let agree a =
  let (na, sa), (nb, sb) =
    match a.positional with
    | [ _; f ] -> (
        let rs = read_records f in
        let label r = Option.value ~default:"" (field "label" r) in
        let labelled l = (l, List.filter (fun r -> label r = l) rs) in
        match List.sort_uniq compare (List.map label rs) with
        | [ la; lb ] -> (labelled la, labelled lb)
        | _ -> fail "%s must hold records with exactly two labels" f)
    | [ _; fa; fb ] -> ((fa, read_records fa), (fb, read_records fb))
    | _ -> usage ()
  in
  let values set w name =
    Array.of_list
      (List.filter_map
         (fun r ->
           if
             Json.member "trace" r = Some (Json.Bool false)
             && Json.member "smoke" r = Some (Json.Bool false)
             && Json.member "correct" r = Some (Json.Bool true)
             && field "workload" r = Some w
           then
             Option.bind (Json.member "metrics" r) (fun ms ->
                 Option.bind (Json.member name ms) (fun m -> Option.bind (Json.member "value" m) Json.to_num))
           else None)
         set)
  in
  Printf.printf "agree: A=%s B=%s\n" na nb;
  Printf.printf "each cell: metric, change of B's median from A's / bound, verdict, [IQR/median of A, of B; runs]\n";
  let ok = ref true in
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun (m : Spec.metric) ->
            let va = values sa w m.Spec.name and vb = values sb w m.Spec.name in
            if Array.length va = 0 || Array.length vb = 0 then begin
              ok := false;
              m.Spec.name ^ " missing"
            end
            else
              let ma = Stats.median va and mb = Stats.median vb in
              let delta = (mb -. ma) /. ma in
              let pass = Float.abs delta <= m.Spec.bound in
              if not pass then ok := false;
              Printf.sprintf "%s %+.1f%%/%.0f%% %s [%.1f%% %.1f%%; %d/%d]" m.Spec.name (100.0 *. delta)
                (100.0 *. m.Spec.bound)
                (if pass then "ok" else "FAIL")
                (100.0 *. Stats.iqr_share va) (100.0 *. Stats.iqr_share vb) (Array.length va) (Array.length vb))
          Spec.end_to_end
      in
      Printf.printf "%-10s %s\n" w (String.concat " | " cells))
    Spec.workload_names;
  print_endline (if !ok then "agree: every metric within its bound" else "agree: DISAGREE");
  if not !ok then exit 1

let () =
  let a = parse_args (List.tl (Array.to_list Sys.argv)) in
  match a.positional with
  | "run" :: _ -> run a
  | "all" :: _ -> all a
  | "agree" :: _ -> agree a
  | [ "spec" ] -> print_string (Json.to_string_pretty Spec.benchmark_json)
  | _ -> usage ()

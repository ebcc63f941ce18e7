module Graph = Pgraph.Graph
module Distance = Pgraph.Distance
module Guard = Robust.Guard
module Inject = Robust.Inject

type config = { iterations : int; exploration : float; rollout_depth : int }

let default_config ?(iterations = 300) () =
  { iterations; exploration = sqrt 2.0; rollout_depth = 12 }

type result = {
  operator : Graph.operator;
  reward : float;
  visits : int;
  quarantined : bool;
}

type failure_stats = {
  evaluations : int;
  quarantined : int;
  attempts : int;
  retries : int;
  failed_attempts : (string * int) list;
  backoff_seconds : float;
  checkpoint_writes : int;
}

let no_failures =
  {
    evaluations = 0;
    quarantined = 0;
    attempts = 0;
    retries = 0;
    failed_attempts = [];
    backoff_seconds = 0.0;
    checkpoint_writes = 0;
  }

type run = { results : result list; stats : failure_stats }

(* Per-tree failure accounting.  Each tree owns its collector (domain
   private), merged after the pool joins, so no synchronization and no
   scheduling-dependent state. *)
type collector = {
  mutable c_evaluations : int;
  mutable c_quarantined : int;
  mutable c_attempts : int;
  mutable c_retries : int;
  mutable c_backoff : float;
  c_kinds : (string, int) Hashtbl.t;
}

let new_collector () =
  {
    c_evaluations = 0;
    c_quarantined = 0;
    c_attempts = 0;
    c_retries = 0;
    c_backoff = 0.0;
    c_kinds = Hashtbl.create 4;
  }

let stats_of_collectors ?checkpoint collectors =
  let kinds = Hashtbl.create 4 in
  let stats =
    Array.fold_left
      (fun acc c ->
        Hashtbl.iter
          (fun k n ->
            Hashtbl.replace kinds k (n + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
          c.c_kinds;
        {
          acc with
          evaluations = acc.evaluations + c.c_evaluations;
          quarantined = acc.quarantined + c.c_quarantined;
          attempts = acc.attempts + c.c_attempts;
          retries = acc.retries + c.c_retries;
          backoff_seconds = acc.backoff_seconds +. c.c_backoff;
        })
      no_failures collectors
  in
  {
    stats with
    failed_attempts =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds [] |> List.sort compare;
    checkpoint_writes =
      (match checkpoint with Some s -> Checkpoint.writes s | None -> 0);
  }

(* The found table doubles as the reward memo: signature -> entry.
   Quarantined entries carry the penalty reward and are never retried. *)
type entry = {
  ent_op : Graph.operator;
  ent_reward : float;
  mutable ent_visits : int;
  ent_quarantined : bool;
}

type node = {
  state : Graph.t;
  depth : int;
  mutable children : (Pgraph.Prim.t * node) array option;  (* None = unexpanded *)
  mutable visits : int;
  mutable total : float;
}

let make_node state depth = { state; depth; children = None; visits = 0; total = 0.0 }

(* NaN-safe best: a NaN never wins (or poisons) a comparison. *)
let fmax a b = if Float.is_nan b then a else if Float.is_nan a then b else Float.max a b

let bump_kind collector label =
  Hashtbl.replace collector.c_kinds label
    (1 + Option.value ~default:0 (Hashtbl.find_opt collector.c_kinds label))

(* Graceful-stop marker for the iteration loop; never escapes. *)
exception Stop

(* One tree, one domain.  All mutable state (the tree, the distance
   memo, the found/reward table, the failure collector) is private to
   the call, so trees can run on separate domains as long as [reward]
   itself is safe to call from any domain.  The checkpoint sink is the
   one shared structure; it serializes internally.  [root_filter]
   restricts the {e root} action set only: sharded searches partition
   the space by root action, and every deeper level stays complete
   within the owned subtrees. *)
let run_tree ?(root_filter = fun (_ : Pgraph.Prim.t) -> true) ~config ~enum_cfg ~reward ~rng
    ~policy ~inject ~penalty ~sink ~preload ~collector ~admit ~cancel () =
  let dist = Distance.create () in
  let found : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  (* Resumed entries enter with zero visits: the replayed trajectory
     recounts encounters, so a resumed run's counters match an
     uninterrupted run's.  Only their rewards are reused. *)
  List.iter
    (fun e ->
      Hashtbl.replace found e.Checkpoint.signature
        {
          ent_op = e.Checkpoint.operator;
          ent_reward = e.Checkpoint.reward;
          ent_visits = 0;
          ent_quarantined = e.Checkpoint.quarantined;
        })
    preload;
  (* Score one never-seen-before candidate: the admission gate, then
     the guarded reward thunk.  A rejection by [admit] is deterministic
     (budget or validation verdict), so it is quarantined directly: one
     attempt, no retries, and the reward thunk never runs. *)
  let score key op =
    match admit op with
    | Error k ->
        let label = Guard.kind_label k in
        collector.c_attempts <- collector.c_attempts + 1;
        bump_kind collector label;
        collector.c_quarantined <- collector.c_quarantined + 1;
        (penalty, true, Some label)
    | Ok () -> (
        let out = Guard.run ~policy ~inject ?cancel ~key (fun token -> reward ~cancel:token op) in
        collector.c_attempts <- collector.c_attempts + out.Guard.attempts;
        collector.c_retries <- collector.c_retries + (out.Guard.attempts - 1);
        List.iter (fun k -> bump_kind collector (Guard.kind_label k)) out.Guard.failures;
        collector.c_backoff <- collector.c_backoff +. out.Guard.slept;
        match out.Guard.result with
        | Ok r ->
            collector.c_evaluations <- collector.c_evaluations + 1;
            (r, false, None)
        | Error k ->
            collector.c_quarantined <- collector.c_quarantined + 1;
            (penalty, true, Some (Guard.kind_label k)))
  in
  let evaluate op =
    let key = Graph.operator_signature op in
    match Hashtbl.find_opt found key with
    | Some e ->
        e.ent_visits <- e.ent_visits + 1;
        e.ent_reward
    | None ->
        let r, quarantined, reason = score key op in
        Hashtbl.add found key
          { ent_op = op; ent_reward = r; ent_visits = 1; ent_quarantined = quarantined };
        Option.iter
          (fun s ->
            Checkpoint.note s
              {
                Checkpoint.signature = key;
                operator = op;
                reward = r;
                visits = 1;
                quarantined;
                reason;
              })
          sink;
        r
  in
  (* Rollout: random guided walk from the node's state.  Every complete
     state along the way is evaluated and recorded (Algorithm 1 keeps
     enumerating past a match); the rollout's value is the best reward
     seen.  The walk stops after [rollout_depth] actions or at the
     global primitive cap, whichever comes first. *)
  let rollout node =
    let horizon = min enum_cfg.Enumerate.max_prims (node.depth + config.rollout_depth) in
    let rec go depth g best =
      let best =
        match Enumerate.try_complete enum_cfg g with
        | Some op -> fmax best (evaluate op)
        | None -> best
      in
      if depth >= horizon then best
      else
        match
          Enumerate.guided_children enum_cfg dist g
            ~budget:(enum_cfg.Enumerate.max_prims - depth - 1)
        with
        | [] -> best
        | options -> go (depth + 1) (Enumerate.pick_guided rng options) best
    in
    go node.depth node.state 0.0
  in
  (* Enumerate and distance-prune a node's children on first visit. *)
  let expand node =
    match node.children with
    | Some c -> c
    | None ->
        let children = Enumerate.children enum_cfg node.state in
        let children =
          if node.depth = 0 then List.filter (fun (p, _) -> root_filter p) children
          else children
        in
        let kids =
          List.filter
            (fun (_, g') ->
              Distance.within dist
                ~current:(Graph.frontier_sizes g')
                ~desired:enum_cfg.Enumerate.desired_shape
                ~budget:(enum_cfg.Enumerate.max_prims - node.depth - 1))
            children
        in
        let arr =
          Array.of_list (List.map (fun (p, g') -> (p, make_node g' (node.depth + 1))) kids)
        in
        node.children <- Some arr;
        arr
  in
  let ucb parent_visits child =
    if child.visits = 0 then infinity
    else
      (child.total /. float_of_int child.visits)
      +. (config.exploration
          *. sqrt (log (float_of_int (max 1 parent_visits)) /. float_of_int child.visits))
  in
  let rec simulate node =
    node.visits <- node.visits + 1;
    (* Terminal reward opportunity at this node. *)
    let r =
      let kids = expand node in
      if Array.length kids = 0 then
        match Enumerate.try_complete enum_cfg node.state with
        | Some op -> evaluate op
        | None -> 0.0
      else begin
        (* pick by UCB; unvisited children first *)
        let best = ref 0 in
        for i = 1 to Array.length kids - 1 do
          let _, ci = kids.(i) and _, cb = kids.(!best) in
          if ucb node.visits ci > ucb node.visits cb then best := i
        done;
        let _, child = kids.(!best) in
        if child.visits = 0 then begin
          child.visits <- 1;
          let r = rollout child in
          child.total <- child.total +. r;
          r
        end
        else simulate child
      end
    in
    node.total <- node.total +. r;
    r
  in
  let root = make_node (Graph.init enum_cfg.Enumerate.output_shape) 0 in
  (* Graceful stop: the token is polled at every iteration boundary,
     and a [Cancelled] escaping the guard mid-iteration (external
     shutdown tripping inside an evaluation) lands here too.  Either
     way the tree returns what it has — partial results, not an
     exception — so the caller can still flush a checkpoint and report
     a top-k. *)
  (try
     for _ = 1 to config.iterations do
       (match cancel with
       | Some c when Robust.Cancel.is_cancelled c -> raise_notrace Stop
       | Some _ | None -> ());
       ignore (simulate root)
     done
   with Stop | Robust.Cancel.Cancelled _ -> ());
  found

(* Ranking: quarantined candidates always sort after healthy ones, NaN
   rewards (possible only through a caller-chosen NaN penalty) are
   ranked as -inf instead of poisoning the comparison, and remaining
   ties break on the signature so the ordering is independent of
   hash-table iteration order.  Entries with zero visits are resumed
   memo entries this run never reached; they stay in the memo (and the
   checkpoint) but are not results of this run. *)
let to_results found =
  let key r = if Float.is_nan r then neg_infinity else r in
  Hashtbl.fold
    (fun sg e acc ->
      if e.ent_visits = 0 then acc
      else
        ( sg,
          {
            operator = e.ent_op;
            reward = e.ent_reward;
            visits = e.ent_visits;
            quarantined = e.ent_quarantined;
          } )
        :: acc)
    found []
  |> List.sort (fun (ka, (a : result)) (kb, (b : result)) ->
         match compare a.quarantined b.quarantined with
         | 0 -> (
             match compare (key b.reward) (key a.reward) with
             | 0 -> compare ka kb
             | c -> c)
         | c -> c)
  |> List.map snd

let admit_all _ = Ok ()

(* Whether [e] beats [m], two trees' entries for one signature: a
   healthy evaluation beats any quarantine verdict (the guard is
   deterministic per key, so trees disagree only when their policies saw
   different transient faults), and among healthy entries the higher
   reward wins, a NaN never. *)
let beats e m =
  (not e.ent_quarantined)
  && (m.ent_quarantined
     || ((not (Float.is_nan e.ent_reward))
        && (Float.is_nan m.ent_reward || e.ent_reward > m.ent_reward)))

(* Fold [src]'s entries into [dst], summing visits.  The winner's
   operator comes with its reward: two operators can share a signature
   and still score differently. *)
let merge_into dst src =
  Hashtbl.iter
    (fun key e ->
      match Hashtbl.find_opt dst key with
      | None -> Hashtbl.add dst key e
      | Some m ->
          Hashtbl.replace dst key
            { (if beats e m then e else m) with ent_visits = m.ent_visits + e.ent_visits })
    src

let search_run ?(config = default_config ()) ?pool ?(guard = Guard.default_policy)
    ?(inject = Inject.none) ?(quarantine_reward = 0.0) ?checkpoint ?(resume = [])
    ?(admit = admit_all) ?cancel ?root_filter enum_cfg ~reward ~rng () =
  let k = match pool with Some p -> Par.Pool.size p | None -> 1 in
  (* Tree 0 keeps [rng]; the others split theirs off it up front, in
     order, so the set of trees (and hence the merged result) depends
     only on [rng] and [k], never on how the pool schedules them. *)
  let rngs = Array.init k (fun i -> if i = 0 then rng else Nd.Rng.split rng) in
  let collectors = Array.init k (fun _ -> new_collector ()) in
  (* [config.iterations] is the total budget, dealt out as evenly as
     possible.  Each tree polls the token itself and self-terminates
     with partial results, so the pool-level map is left uncancelled
     and always returns every table. *)
  let run i =
    let iterations = (config.iterations / k) + if i < config.iterations mod k then 1 else 0 in
    run_tree ?root_filter ~config:{ config with iterations } ~enum_cfg ~reward ~rng:rngs.(i)
      ~policy:guard ~inject ~penalty:quarantine_reward ~sink:checkpoint ~preload:resume
      ~collector:collectors.(i) ~admit ~cancel ()
  in
  let found =
    match pool with
    | Some pool when k > 1 ->
        let tables = Par.Pool.map pool run (Array.init k Fun.id) in
        for i = 1 to k - 1 do
          merge_into tables.(0) tables.(i)
        done;
        tables.(0)
    | Some _ | None -> run 0
  in
  (match checkpoint with Some s -> Checkpoint.flush s | None -> ());
  { results = to_results found; stats = stats_of_collectors ?checkpoint collectors }

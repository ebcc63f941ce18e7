(* Tests for pGraph construction, completion, and canonicalization. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Canon = Pgraph.Canon

let n = Var.primary "N"
let c_in = Var.primary "C_in"
let c_out = Var.primary "C_out"
let h = Var.primary "H"
let w = Var.primary "W"
let m = Var.primary "M"
let nn = Var.primary "Nd"
let kk = Var.primary "K"
let k = Var.coefficient "k"
let s = Var.coefficient "s"

let sz = Size.of_var

let conv_valuation =
  Valuation.of_list
    [ (n, 2); (c_in, 8); (c_out, 16); (h, 16); (w, 16); (m, 8); (nn, 8); (kk, 8); (k, 3); (s, 2) ]

let ctx = Simplify.ctx ~approx_factor:None [ conv_valuation ]
let cfg = Canon.default_config ctx

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* The matmul of Table 2: out[i:M, j:N] += in[i, r] * w[r, j]. *)
let build_matmul () =
  let g = Graph.init [ sz m; sz nn ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok_or_fail (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok_or_fail (Graph.apply g (Prim.Match 1)) in
  ok_or_fail (Graph.complete g ~desired:[ sz m; sz kk ])

let test_matmul () =
  let op = build_matmul () in
  Alcotest.(check int) "one weight group" 1 (List.length op.Graph.op_weights);
  Alcotest.(check int) "weight rank 2" 2 (List.length (List.hd op.Graph.op_weights));
  Alcotest.(check int) "two input dims" 2 (List.length op.Graph.op_input_exprs);
  Alcotest.(check int) "one reduction" 1 (List.length op.Graph.op_reductions)

(* Average pooling of Table 2: out[i] += in[s*i + r_s]. *)
let build_avgpool () =
  let out_h = Size.mul (Size.var_pow s (-1)) (sz h) in
  let g = Graph.init [ out_h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz s))) in
  let g = ok_or_fail (Graph.apply g (Prim.Split (0, 1))) in
  ok_or_fail (Graph.complete g ~desired:[ sz h ])

let test_avgpool () =
  let op = build_avgpool () in
  Alcotest.(check int) "no weights" 0 (List.length op.Graph.op_weights);
  let e = List.hd op.Graph.op_input_exprs in
  (* s*i + r *)
  let lookup = Valuation.lookup conv_valuation in
  let v = Ast.eval ~env:(fun id -> if id = 0 then 3 else 1) ~lookup e in
  Alcotest.(check int) "s*3+1" 7 v

(* The full conv2d of Fig. 2 in canonical order. *)
let conv_trace =
  [
    Prim.Reduce (sz c_in);
    (* frontier: N C_out H W r_Ci *)
    Prim.Reduce (sz k);
    Prim.Reduce (sz k);
    (* frontier: N C_out H W r_Ci r_KH r_KW *)
    Prim.Share (4, Prim.New_group);
    Prim.Share (5, Prim.Current_group);
    Prim.Unfold (2, 5);
    (* H window; frontier: N C_out H' W r_Ci r_KW *)
    Prim.Share (5, Prim.Current_group);
    Prim.Unfold (3, 5);
    (* frontier: N C_out H' W' r_Ci *)
    Prim.Match 1;
    (* C_out to the weight *)
  ]

let build_conv () =
  let g = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g = ok_or_fail (Graph.apply_all g conv_trace) in
  ok_or_fail (Graph.complete g ~desired:[ sz n; sz c_in; sz h; sz w ])

let test_conv () =
  let op = build_conv () in
  Alcotest.(check int) "weight groups" 1 (List.length op.Graph.op_weights);
  Alcotest.(check int) "weight rank 4" 4 (List.length (List.hd op.Graph.op_weights));
  Alcotest.(check int) "three reductions" 3 (List.length op.Graph.op_reductions);
  (* Input H expression is i_H + r_KH - k/2. *)
  let lookup = Valuation.lookup conv_valuation in
  let e_h = List.nth op.Graph.op_input_exprs 2 in
  let env id = match id with 2 -> 5 | 5 -> 2 | _ -> 0 in
  Alcotest.(check int) "unfold centering" 6 (Ast.eval ~env ~lookup e_h)

let test_conv_is_canonical () =
  Alcotest.(check bool) "conv trace canonical" true
    (Canon.trace_is_canonical cfg [ sz n; sz c_out; sz h; sz w ] conv_trace)

(* --- Structural error cases ------------------------------------------- *)

let test_merge_requires_divisibility () =
  let g = Graph.init [ sz h ] in
  (match Graph.apply g (Prim.Merge (0, sz c_in)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merge by non-divisor must fail");
  match Graph.apply g (Prim.Merge (0, sz s)) with
  | Ok g' ->
      Alcotest.(check int) "two dims after merge" 2 (List.length (Graph.frontier g'))
  | Error msg -> Alcotest.failf "merge by s should work: %s" msg

let test_share_requires_bare_iter () =
  let g = Graph.init [ sz h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Merge (0, sz s))) in
  match Graph.apply g (Prim.Share (0, Prim.New_group)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Share of a compound expression must fail"

let test_match_needs_group () =
  let g = Graph.init [ sz m; sz nn ] in
  match Graph.apply g (Prim.Match 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Match without a weight group must fail"

let test_pending_stride () =
  let g = Graph.init [ sz h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok_or_fail (Graph.apply g (Prim.Stride (1, sz s))) in
  (* The strided dim may not be merged... *)
  (match Graph.apply g (Prim.Merge (1, sz s)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "view on a pending-stride dim must fail");
  (* ... but may be an Unfold window (dilated convolution). *)
  let g = ok_or_fail (Graph.apply g (Prim.Unfold (0, 1))) in
  Alcotest.(check int) "window folded" 1 (List.length (Graph.frontier g))

let test_incomplete_rejected () =
  let g = Graph.init [ sz m; sz nn ] in
  match Graph.complete g ~desired:[ sz m; sz kk ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched shape must not complete"

let test_unused_spatial_rejected () =
  (* Expanding away an output dim without other use replicates data;
     matching then forgets i entirely. *)
  let g = Graph.init [ sz m; sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Expand 1)) in
  match Graph.complete g ~desired:[ sz m ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unused output iterator must be rejected"

let test_futile_reduce_rejected () =
  (* A reduction iterator that ends up in exactly one weight group and
     nowhere else only scales the result. *)
  let g = Graph.init [ sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok_or_fail (Graph.apply g (Prim.Share (0, Prim.New_group))) in
  let g = ok_or_fail (Graph.apply g (Prim.Match 1)) in
  (match Graph.complete g ~desired:[ sz m ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "futile reduction must be rejected");
  (* The canonicalizer already rejects the stranding Match up front. *)
  let g2 = Graph.init [ sz m ] in
  let g2 = ok_or_fail (Graph.apply g2 (Prim.Reduce (sz kk))) in
  let g2 = ok_or_fail (Graph.apply g2 (Prim.Share (0, Prim.New_group))) in
  Alcotest.(check bool) "canon rejects stranding Match" false
    (Canon.is_canonical cfg g2 (Prim.Match 1))

(* --- Canonicalization --------------------------------------------------- *)

let test_merge_above_split_uncanonical () =
  (* Fig. 3(a): Split then Merge(B*C) is not canonical. *)
  let a = Var.primary "A" in
  let b = Var.coefficient "b" in
  let c = Var.coefficient "c" in
  let v = Valuation.of_list [ (a, 4); (b, 6); (c, 2) ] in
  let cfg = Canon.default_config (Simplify.ctx ~approx_factor:None [ v ]) in
  let g = Graph.init [ Size.mul (sz a) (sz b); sz c ] in
  let g = ok_or_fail (Graph.apply g (Prim.Split (0, 1))) in
  Alcotest.(check bool) "Merge above Split rejected" false
    (Canon.is_canonical cfg g (Prim.Merge (0, Size.mul (sz b) (sz c))))

let test_split_above_merge_uncanonical () =
  (* Merge then Split of the same pieces is the identity. *)
  let g = Graph.init [ Size.mul (sz h) (sz s) ] in
  let g = ok_or_fail (Graph.apply g (Prim.Merge (0, sz s))) in
  Alcotest.(check bool) "Split above Merge rejected" false
    (Canon.is_canonical cfg g (Prim.Split (0, 1)))

let test_expand_of_reduce_uncanonical () =
  let g = Graph.init [ sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  Alcotest.(check bool) "Expand of Reduce rejected" false
    (Canon.is_canonical cfg g (Prim.Expand 1))

let test_ordering_views_before_contractions () =
  (* A view on an untouched dim after an independent Reduce is not
     canonical: it should have been applied before. *)
  let g = Graph.init [ sz h; sz w ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz k))) in
  Alcotest.(check bool) "late independent Merge rejected" false
    (Canon.is_canonical cfg g (Prim.Merge (0, sz s)));
  (* But a view involving the Reduce-created dim is fine. *)
  Alcotest.(check bool) "Unfold of the reduce dim accepted" true
    (Canon.is_canonical cfg g (Prim.Unfold (0, 2)))

let test_budgets () =
  let g = Graph.init [ sz h; sz w; sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Expand 0)) in
  Alcotest.(check bool) "second Expand rejected" false
    (Canon.is_canonical cfg g (Prim.Expand 0))

let test_reduce_one_rejected () =
  let g = Graph.init [ sz h ] in
  Alcotest.(check bool) "Reduce(1) rejected" false
    (Canon.is_canonical cfg g (Prim.Reduce Size.one))

let test_unfold_window_size () =
  (* A window larger than the main dim is rejected. *)
  let g = Graph.init [ sz s ] in
  (* dom 2 *)
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz h))) in
  Alcotest.(check bool) "oversized window rejected" false
    (Canon.is_canonical cfg g (Prim.Unfold (0, 1)))

(* --- Shape distance ------------------------------------------------------ *)

let dist = Pgraph.Distance.create ()

let test_distance_zero_when_matched () =
  Alcotest.(check (option int))
    "identical" (Some 0)
    (Pgraph.Distance.distance dist ~current:[ sz m; sz kk ] ~desired:[ sz m; sz kk ]);
  Alcotest.(check (option int))
    "permutation is free" (Some 0)
    (Pgraph.Distance.distance dist ~current:[ sz kk; sz m ] ~desired:[ sz m; sz kk ])

let test_distance_paper_example () =
  (* §7.1: [C_in, s^-1*H, s*W, k] vs [C_in, H, W] has distance 3. *)
  let current =
    [ sz c_in; Size.mul (Size.var_pow s (-1)) (sz h); Size.mul (sz s) (sz w); sz k ]
  in
  Alcotest.(check (option int))
    "paper example" (Some 3)
    (Pgraph.Distance.distance dist ~current ~desired:[ sz c_in; sz h; sz w ])

let test_distance_regroup () =
  (* [H*W] vs [H, W]: a single Merge. *)
  Alcotest.(check (option int))
    "one merge" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ Size.mul (sz h) (sz w) ] ~desired:[ sz h; sz w ]);
  (* [H, W] vs [H*W]: a single Split. *)
  Alcotest.(check (option int))
    "one split" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h; sz w ] ~desired:[ Size.mul (sz h) (sz w) ])

let test_distance_window_elimination () =
  (* [H, k] vs [H]: one Unfold. *)
  Alcotest.(check (option int))
    "unfold needed" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h; sz k ] ~desired:[ sz h ])

let test_distance_unreachable () =
  (* A desired dim with no counterpart needs a Reduce to introduce the
     missing variable: one step. *)
  Alcotest.(check (option int))
    "reduce introduces missing variable" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h ] ~desired:[ sz h; sz c_in ]);
  (* ... but a primary variable cannot be manufactured into an existing
     group's product. *)
  Alcotest.(check (option int))
    "cannot regroup into missing primary" None
    (Pgraph.Distance.distance dist ~current:[ sz h ] ~desired:[ Size.mul (sz h) (sz c_in) ])

let test_distance_conv_prefix () =
  (* Partial conv pGraph states must stay within a small distance. *)
  let g = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz c_in))) in
  let d =
    Pgraph.Distance.distance dist ~current:(Graph.frontier_sizes g)
      ~desired:[ sz n; sz c_in; sz h; sz w ]
  in
  match d with
  | Some d -> Alcotest.(check bool) "reachable and small" true (d <= 2)
  | None -> Alcotest.fail "conv prefix must be reachable"

(* Brute-force oracle: every grouping scheme, listed.  Units are the
   dims linked by shared primary variables; each set partition of the
   units is extended by each attachment of the coefficient-only dims,
   where a current-side one may also start a block of its own.  Returns
   the cheapest scheme's cost and the number of schemes. *)
let primaries (_, size) = List.filter Var.is_primary (Size.vars size)

let units_of dims =
  List.fold_left
    (fun units d ->
      let shares unit =
        List.exists (fun d' -> List.exists (fun v -> List.mem v (primaries d')) (primaries d)) unit
      in
      let linked, rest = List.partition shares units in
      (d :: List.concat linked) :: rest)
    [] dims

let join_each x blocks = List.mapi (fun i _ -> List.mapi (fun j b -> if i = j then x :: b else b) blocks) blocks

let rec partitions = function
  | [] -> [ [] ]
  | x :: rest -> List.concat_map (fun parts -> ([ x ] :: parts) :: join_each x parts) (partitions rest)

let rec attachments coeff blocks =
  match coeff with
  | [] -> [ blocks ]
  | ((is_current, _) as dim) :: rest ->
      List.concat_map
        (fun blocks' -> (if is_current then [ [ dim ] :: blocks' ] else []) @ join_each dim blocks')
        (attachments rest blocks)

let oracle_distance ~current ~desired =
  if List.equal Size.equal (List.sort Size.compare current) (List.sort Size.compare desired) then
    (Some 0, 1)
  else
    let dims = List.map (fun s -> (true, s)) current @ List.map (fun s -> (false, s)) desired in
    let with_primary, coeff = List.partition (fun d -> primaries d <> []) dims in
    let schemes =
      List.concat_map
        (fun part -> attachments coeff (List.map List.concat part))
        (partitions (units_of with_primary))
    in
    let side keep block = List.filter_map (fun (c, s) -> if c = keep then Some s else None) block in
    let cost scheme =
      List.fold_left
        (fun acc block ->
          match (acc, Pgraph.Distance.group_cost (side true block) (side false block)) with
          | Some a, Some c -> Some (a + c)
          | _, _ -> None)
        (Some 0) scheme
    in
    let cheaper best scheme =
      match (best, cost scheme) with
      | Some b, Some c -> Some (min b c)
      | None, c -> c
      | b, None -> b
    in
    (List.fold_left cheaper None schemes, List.length schemes)

let fresh_distance ~current ~desired =
  Pgraph.Distance.distance (Pgraph.Distance.create ()) ~current ~desired

let coeff_sizes = [ sz k; sz s; Size.mul (sz k) (sz s) ]

let dim_sizes =
  coeff_sizes
  @ [
      sz n;
      sz c_in;
      sz h;
      sz w;
      Size.mul (sz h) (sz w);
      Size.mul (Size.var_pow s (-1)) (sz h);
      Size.mul (sz s) (sz w);
      Size.mul (sz c_in) (sz k);
    ]

(* Random current/desired multisets over the conv variables; one case in
   five has coefficient-only dims alone, so no unit at all. *)
let arb_frontiers =
  let open QCheck.Gen in
  let dims pool most = list_size (int_range 0 most) (oneofl pool) in
  let show dims = "[" ^ String.concat "; " (List.map Size.to_string dims) ^ "]" in
  QCheck.make
    ~print:(fun (current, desired) -> show current ^ " -> " ^ show desired)
    (frequency
       [
         (4, pair (dims dim_sizes 5) (dims dim_sizes 3));
         (1, pair (dims coeff_sizes 4) (dims coeff_sizes 2));
       ])

let prop_distance_is_oracle_minimum =
  QCheck.Test.make ~name:"distance = brute-force minimum over groupings" ~count:500 arb_frontiers
    (fun (current, desired) ->
      fresh_distance ~current ~desired = fst (oracle_distance ~current ~desired))

let test_distance_oracle_cases () =
  let agree label ~current ~desired expected =
    Alcotest.(check (option int)) (label ^ " (oracle)") expected
      (fst (oracle_distance ~current ~desired));
    Alcotest.(check (option int)) label expected (fresh_distance ~current ~desired)
  in
  agree "no unit: two current coefficients, one elimination" ~current:[ sz k; sz s ] ~desired:[]
    (Some 1);
  agree "coefficients on both sides" ~current:[ Size.mul (sz c_in) (sz k); sz k ]
    ~desired:[ sz c_in; sz k ] (Some 2);
  agree "a desired coefficient without a unit is unreachable" ~current:[ sz s ] ~desired:[ sz k ]
    None;
  (* Constant factors, which no conv frontier carries. *)
  let times c size = Size.mul (Size.of_int c) size in
  agree "a shrinking constant needs an elimination" ~current:[ times 4 (sz h) ]
    ~desired:[ times 2 (sz h) ] (Some 1);
  agree "a constant that does not divide is unreachable" ~current:[ times 2 (sz h) ]
    ~desired:[ times 3 (sz h) ] None;
  agree "equal products, different multisets" ~current:[ times 2 (sz h); sz w ]
    ~desired:[ sz h; times 2 (sz w) ] (Some 2)

let test_distance_wide_frontier () =
  (* Five units and four current coefficient dims: all 21,147 set
     partitions of the nine are schemes, more than the 20,000 a capped
     enumeration would visit. *)
  let current = [ sz n; sz c_out; sz h; sz w; sz k; sz k; sz s; sz s ] in
  let desired = [ sz n; sz c_in; sz h; sz w ] in
  let expected, schemes = oracle_distance ~current ~desired in
  Alcotest.(check int) "schemes" 21_147 schemes;
  Alcotest.(check (option int)) "exact minimum" expected (fresh_distance ~current ~desired)

(* Search traffic: every frontier whose distance a seeded guided walk
   of the conv search space (max_prims 7, desired [N; C_in; H; W])
   asks for, once each.  Unlike the pool above, these reach 8 current
   dims, 8 items and [s^-1] and [g^-1] exponents.  One memo serves every
   walk, as one serves a whole MCTS tree. *)
let walk_frontiers ~walks =
  let space = Bench_inputs.conv_space ~max_prims:7 in
  let max_prims = space.Search.Enumerate.max_prims in
  let shared = Pgraph.Distance.create () in
  let seen = Hashtbl.create 1024 and frontiers = ref [] in
  for seed = 1 to walks do
    let rng = Nd.Rng.create ~seed in
    let rec go depth g =
      List.iter
        (fun (_, g') ->
          let current = Graph.frontier_sizes g' in
          let key = List.sort Size.compare current in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            frontiers := current :: !frontiers
          end)
        (Search.Enumerate.children space g);
      if depth < max_prims then
        match Search.Enumerate.guided_children space shared g ~budget:(max_prims - depth - 1) with
        | [] -> ()
        | options -> go (depth + 1) (Search.Enumerate.pick_guided rng options)
    in
    go 0 (Graph.init space.Search.Enumerate.output_shape)
  done;
  (space.Search.Enumerate.desired_shape, shared, List.rev !frontiers)

(* Items of the DP: units plus coefficient-only dims. *)
let items ~current ~desired =
  let dims = List.map (fun s -> (true, s)) current @ List.map (fun s -> (false, s)) desired in
  let with_primary, coeff = List.partition (fun d -> primaries d <> []) dims in
  List.length (units_of with_primary) + List.length coeff

let test_distance_search_traffic () =
  let desired, shared, frontiers = walk_frontiers ~walks:(if Bench_inputs.full then 300 else 20) in
  let show dims = "[" ^ String.concat "; " (List.map Size.to_string dims) ^ "]" in
  let show_d = function Some d -> string_of_int d | None -> "none" in
  List.iter
    (fun current ->
      let expected = fst (oracle_distance ~current ~desired) in
      let fresh = fresh_distance ~current ~desired in
      let warm = Pgraph.Distance.distance shared ~current:(List.rev current) ~desired in
      if fresh <> expected || warm <> expected then
        Alcotest.failf "%s: oracle %s, fresh memo %s, warm shared memo %s" (show current)
          (show_d expected) (show_d fresh) (show_d warm))
    frontiers;
  (* The walks still reach the frontiers the comment above promises. *)
  Alcotest.(check bool) "some frontier has 8 items" true
    (List.exists (fun current -> items ~current ~desired >= 8) frontiers);
  Alcotest.(check bool) "some frontier has an s^-1 exponent" true
    (List.exists (List.exists (fun size -> Size.exponent size Syno.Zoo.Vars.s < 0)) frontiers)

(* --- FLOPs ---------------------------------------------------------------- *)

let test_flops_matmul () =
  let op = build_matmul () in
  (* M=8, N=8, K=8: 2*M*N*K = 1024 *)
  Alcotest.(check int) "matmul flops" 1024 (Pgraph.Flops.naive_flops op conv_valuation);
  Alcotest.(check int) "matmul params" 64 (Pgraph.Flops.params op conv_valuation);
  Alcotest.(check int) "in elems" 64 (Pgraph.Flops.input_elems op conv_valuation);
  Alcotest.(check int) "out elems" 64 (Pgraph.Flops.output_elems op conv_valuation)

let test_flops_conv () =
  let op = build_conv () in
  (* 2 * (N*C_out*H*W) * (C_in*k*k) *)
  let expected = 2 * (2 * 16 * 16 * 16) * (8 * 3 * 3) in
  Alcotest.(check int) "conv flops" expected (Pgraph.Flops.naive_flops op conv_valuation);
  Alcotest.(check int) "conv params" (16 * 8 * 3 * 3) (Pgraph.Flops.params op conv_valuation)

let test_budgets_flops () =
  let op = build_matmul () in
  Alcotest.(check bool) "within" true
    (Pgraph.Flops.within_budgets ~max_flops:2000 op [ conv_valuation ]);
  Alcotest.(check bool) "exceeded" false
    (Pgraph.Flops.within_budgets ~max_flops:1000 op [ conv_valuation ])

let () =
  Alcotest.run ~argv:Bench_inputs.argv "pgraph"
    [
      ( "operators",
        [
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "avgpool" `Quick test_avgpool;
          Alcotest.test_case "conv2d" `Quick test_conv;
          Alcotest.test_case "conv canonical" `Quick test_conv_is_canonical;
        ] );
      ( "structure",
        [
          Alcotest.test_case "merge divisibility" `Quick test_merge_requires_divisibility;
          Alcotest.test_case "share bare iter" `Quick test_share_requires_bare_iter;
          Alcotest.test_case "match needs group" `Quick test_match_needs_group;
          Alcotest.test_case "pending stride" `Quick test_pending_stride;
          Alcotest.test_case "incomplete rejected" `Quick test_incomplete_rejected;
          Alcotest.test_case "unused spatial" `Quick test_unused_spatial_rejected;
          Alcotest.test_case "futile reduce" `Quick test_futile_reduce_rejected;
        ] );
      ( "canon",
        [
          Alcotest.test_case "merge above split" `Quick test_merge_above_split_uncanonical;
          Alcotest.test_case "split above merge" `Quick test_split_above_merge_uncanonical;
          Alcotest.test_case "expand of reduce" `Quick test_expand_of_reduce_uncanonical;
          Alcotest.test_case "ordering" `Quick test_ordering_views_before_contractions;
          Alcotest.test_case "budgets" `Quick test_budgets;
          Alcotest.test_case "reduce(1)" `Quick test_reduce_one_rejected;
          Alcotest.test_case "unfold window size" `Quick test_unfold_window_size;
        ] );
      ( "distance",
        [
          Alcotest.test_case "zero when matched" `Quick test_distance_zero_when_matched;
          Alcotest.test_case "paper example" `Quick test_distance_paper_example;
          Alcotest.test_case "regroup" `Quick test_distance_regroup;
          Alcotest.test_case "window elimination" `Quick test_distance_window_elimination;
          Alcotest.test_case "unreachable" `Quick test_distance_unreachable;
          Alcotest.test_case "conv prefix" `Quick test_distance_conv_prefix;
          Alcotest.test_case "oracle cases" `Quick test_distance_oracle_cases;
          Alcotest.test_case "wide frontier" `Quick test_distance_wide_frontier;
          QCheck_alcotest.to_alcotest prop_distance_is_oracle_minimum;
          Alcotest.test_case "search traffic" `Quick test_distance_search_traffic;
        ] );
      ( "flops",
        [
          Alcotest.test_case "matmul" `Quick test_flops_matmul;
          Alcotest.test_case "conv" `Quick test_flops_conv;
          Alcotest.test_case "budgets" `Quick test_budgets_flops;
        ] );
    ]

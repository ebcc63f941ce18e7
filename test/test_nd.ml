(* Tests for the dense tensor substrate. *)

module Rng = Nd.Rng
module Tensor = Nd.Tensor
module Einsum = Nd.Einsum

let tensor = Alcotest.testable Tensor.pp (Tensor.equal ~eps:1e-9)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check (list (float 0.0))) "same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 10 (fun _ -> Rng.float c) in
  Alcotest.(check bool) "different seed differs" false (xs = zs)

let test_rng_ranges () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_normal_moments () =
  let r = Rng.create ~seed:11 in
  let n = 20000 in
  let samples = List.init n (fun _ -> Rng.normal r) in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. float_of_int n
  in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_create_get_set () =
  let t = Tensor.create [| 2; 3 |] in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Tensor.set t [| 1; 2 |] 5.0;
  Alcotest.(check (float 0.0)) "get back" 5.0 (Tensor.get t [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "others zero" 0.0 (Tensor.get t [| 0; 0 |])

let test_ravel () =
  Alcotest.(check int) "ravel" 7 (Tensor.ravel_index [| 2; 4 |] [| 1; 3 |]);
  Alcotest.(check (array int)) "unravel" [| 1; 3 |] (Tensor.unravel_index [| 2; 4 |] 7)

let test_reshape_transpose () =
  let t = Tensor.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1))) in
  let r = Tensor.reshape t [| 3; 2 |] in
  Alcotest.(check (float 0.0)) "reshape row-major" 3.0 (Tensor.get r [| 1; 1 |]);
  let tr = Tensor.transpose t [| 1; 0 |] in
  Alcotest.(check (array int)) "transposed shape" [| 3; 2 |] (Tensor.shape tr);
  Alcotest.(check (float 0.0)) "transposed value" (Tensor.get t [| 1; 2 |])
    (Tensor.get tr [| 2; 1 |])

let test_elementwise () =
  let a = Tensor.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array [| 3 |] [| 10.0; 20.0; 30.0 |] in
  Alcotest.check tensor "add" (Tensor.of_array [| 3 |] [| 11.0; 22.0; 33.0 |]) (Tensor.add a b);
  Alcotest.check tensor "mul" (Tensor.of_array [| 3 |] [| 10.0; 40.0; 90.0 |]) (Tensor.mul a b);
  Alcotest.check tensor "scale" (Tensor.of_array [| 3 |] [| 2.0; 4.0; 6.0 |]) (Tensor.scale 2.0 a);
  Alcotest.(check (float 1e-9)) "sum" 6.0 (Tensor.sum a);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Tensor.mean a);
  Alcotest.(check int) "argmax" 2 (Tensor.argmax a)

let test_sum_axis () =
  let t = Tensor.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1))) in
  Alcotest.check tensor "axis 0" (Tensor.of_array [| 3 |] [| 3.0; 5.0; 7.0 |]) (Tensor.sum_axis t 0);
  Alcotest.check tensor "axis 1" (Tensor.of_array [| 2 |] [| 3.0; 12.0 |]) (Tensor.sum_axis t 1)

let test_matmul () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Alcotest.check tensor "2x3 * 3x2"
    (Tensor.of_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (Tensor.matmul a b)

let test_axpy () =
  let x = Tensor.of_array [| 2 |] [| 1.0; 2.0 |] in
  let y = Tensor.of_array [| 2 |] [| 10.0; 20.0 |] in
  Tensor.axpy_ 0.5 x y;
  Alcotest.check tensor "y = 0.5x + y" (Tensor.of_array [| 2 |] [| 10.5; 21.0 |]) y

(* --- Einsum -------------------------------------------------------------- *)

let test_einsum_matmul () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Alcotest.check tensor "ik,kj->ij" (Tensor.matmul a b) (Einsum.einsum "ik,kj->ij" [ a; b ])

let test_einsum_outer_inner () =
  let a = Tensor.of_array [| 2 |] [| 1.; 2. |] in
  let b = Tensor.of_array [| 3 |] [| 3.; 4.; 5. |] in
  Alcotest.check tensor "outer"
    (Tensor.of_array [| 2; 3 |] [| 3.; 4.; 5.; 6.; 8.; 10. |])
    (Einsum.einsum "i,j->ij" [ a; b ]);
  let c = Tensor.of_array [| 3 |] [| 1.; 1.; 2. |] in
  Alcotest.check tensor "inner" (Tensor.scalar 17.0) (Einsum.einsum "i,i->" [ b; c ])

let test_einsum_batched () =
  let rng = Rng.create ~seed:3 in
  let x = Tensor.rand_normal rng ~scale:1.0 [| 2; 3; 4 |] in
  let w = Tensor.rand_normal rng ~scale:1.0 [| 4; 5 |] in
  let out = Einsum.einsum "bik,kj->bij" [ x; w ] in
  Alcotest.(check (array int)) "shape" [| 2; 3; 5 |] (Tensor.shape out);
  (* Spot check one element against a manual dot product. *)
  let manual = ref 0.0 in
  for k = 0 to 3 do
    manual := !manual +. (Tensor.get x [| 1; 2; k |] *. Tensor.get w [| k; 4 |])
  done;
  Alcotest.(check (float 1e-9)) "value" !manual (Tensor.get out [| 1; 2; 4 |])

let test_einsum_trace_sum () =
  let t = Tensor.init [| 3; 3 |] (fun idx -> if idx.(0) = idx.(1) then 1.0 else 5.0) in
  Alcotest.check tensor "trace" (Tensor.scalar 3.0) (Einsum.einsum "ii->" [ t ]);
  Alcotest.check tensor "full sum" (Tensor.scalar 33.0) (Einsum.einsum "ij->" [ t ])

let test_einsum_errors () =
  let a = Tensor.create [| 2; 3 |] in
  (try
     ignore (Einsum.einsum "ij,jk->ik" [ a ]);
     Alcotest.fail "arity"
   with Invalid_argument _ -> ());
  try
    ignore (Einsum.einsum "ijk->i" [ a ]);
    Alcotest.fail "rank"
  with Invalid_argument _ -> ()

let test_einsum_repeated_output_label () =
  (* "ij->ii" used to silently produce a dense rank-2 output with wrong
     semantics; numpy rejects it and so do we. *)
  let a = Tensor.create [| 3; 3 |] in
  (try
     ignore (Einsum.einsum "ij->ii" [ a ]);
     Alcotest.fail "repeated output label accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Einsum.plan "ii->ii" [ [| 3; 3 |] ]);
     Alcotest.fail "repeated output label accepted in plan"
   with Invalid_argument _ -> ());
  (* a repeated *input* label stays legal (trace semantics) *)
  let t = Tensor.init [| 3; 3 |] (fun idx -> if idx.(0) = idx.(1) then 2.0 else 9.0) in
  Alcotest.check tensor "trace still works" (Tensor.scalar 6.0) (Einsum.einsum "ii->" [ t ])

let test_einsum_scalar_output () =
  let b = Tensor.of_array [| 3 |] [| 3.; 4.; 5. |] in
  let c = Tensor.of_array [| 3 |] [| 1.; 1.; 2. |] in
  let p = Einsum.plan "i,i->" [ [| 3 |]; [| 3 |] ] in
  let out = Einsum.run p [ b; c ] in
  Alcotest.(check (array int)) "rank-0 shape" [||] (Tensor.shape out);
  Alcotest.check tensor "dot product" (Tensor.scalar 17.0) out;
  (* a second run of the same plan must be independent of the first *)
  Alcotest.check tensor "replay" (Tensor.scalar 17.0) (Einsum.run p [ b; c ])

let test_einsum_nonfinite_propagation () =
  (* IEEE semantics must survive the contraction: a NaN or Inf operand
     poisons exactly the output elements whose reduction touches it
     (nan * 0 = nan, so even a zero partner does not mask it). *)
  let a = Tensor.of_array [| 2; 2 |] [| 1.0; Float.nan; 3.0; 4.0 |] in
  let id = Tensor.of_array [| 2; 2 |] [| 1.0; 0.0; 0.0; 1.0 |] in
  let p = Einsum.plan "ik,kj->ij" [ [| 2; 2 |]; [| 2; 2 |] ] in
  let c = Einsum.run p [ a; id ] in
  Alcotest.(check bool) "row with NaN is NaN" true
    (Float.is_nan (Tensor.get c [| 0; 0 |]) && Float.is_nan (Tensor.get c [| 0; 1 |]));
  Alcotest.(check (float 1e-12)) "clean row untouched" 3.0 (Tensor.get c [| 1; 0 |]);
  Alcotest.(check (float 1e-12)) "clean row untouched" 4.0 (Tensor.get c [| 1; 1 |]);
  let b = Tensor.of_array [| 2; 2 |] [| Float.infinity; 0.0; 0.0; 2.0 |] in
  let d = Einsum.run p [ b; id ] in
  Alcotest.(check bool) "inf survives" true (Tensor.get d [| 0; 0 |] = Float.infinity);
  (* inf * 0 = nan: the contraction must not shortcut it away *)
  Alcotest.(check bool) "inf * 0 is NaN" true (Float.is_nan (Tensor.get d [| 0; 1 |]));
  Alcotest.(check (float 1e-12)) "finite corner" 2.0 (Tensor.get d [| 1; 1 |])

(* --- Properties ----------------------------------------------------------- *)

let arb_shape =
  QCheck.make
    ~print:(fun sh -> String.concat "x" (List.map string_of_int (Array.to_list sh)))
    QCheck.Gen.(map Array.of_list (list_size (int_range 1 3) (int_range 1 4)))

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:100 arb_shape (fun sh ->
      let rng = Rng.create ~seed:5 in
      let t = Tensor.rand_normal rng ~scale:1.0 sh in
      let n = Array.length sh in
      let perm = Array.init n (fun i -> n - 1 - i) in
      let inv = Array.make n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Tensor.equal t (Tensor.transpose (Tensor.transpose t perm) inv))

let prop_sum_axis_preserves_total =
  QCheck.Test.make ~name:"sum_axis preserves total" ~count:100 arb_shape (fun sh ->
      QCheck.assume (Array.length sh >= 1);
      let rng = Rng.create ~seed:9 in
      let t = Tensor.rand_normal rng ~scale:1.0 sh in
      Float.abs (Tensor.sum (Tensor.sum_axis t 0) -. Tensor.sum t) < 1e-9)

let prop_einsum_matmul_associative =
  QCheck.Test.make ~name:"(AB)C = A(BC) via einsum" ~count:50 QCheck.(int_range 1 4)
    (fun n ->
      let rng = Rng.create ~seed:(100 + n) in
      let a = Tensor.rand_normal rng ~scale:1.0 [| n; n |] in
      let b = Tensor.rand_normal rng ~scale:1.0 [| n; n |] in
      let c = Tensor.rand_normal rng ~scale:1.0 [| n; n |] in
      let ab_c = Einsum.einsum "ik,kj->ij" [ Einsum.einsum "ik,kj->ij" [ a; b ]; c ] in
      let a_bc = Einsum.einsum "ik,kj->ij" [ a; Einsum.einsum "ik,kj->ij" [ b; c ] ] in
      Tensor.equal ~eps:1e-6 ab_c a_bc)

(* The contraction per point, as the einsum semantics states it: per
   output in row-major order, from [+0.0], every assignment of the
   summed labels (sorted, row-major) adds the product, from 1.0, of one
   element of each input in order. *)
let naive_einsum spec tensors =
  let inputs = Einsum.input_labels spec and out = Einsum.output_labels spec in
  let extent = Array.make 256 0 and value = Array.make 256 0 in
  List.iter2
    (fun l t -> String.iteri (fun i c -> extent.(Char.code c) <- (Tensor.shape t).(i)) l)
    inputs tensors;
  let chars l = List.init (String.length l) (String.get l) in
  let summed =
    List.filter (fun c -> not (String.contains out c))
      (List.sort_uniq Char.compare (List.concat_map chars inputs))
  in
  let total cs = List.fold_left (fun n c -> n * extent.(Char.code c)) 1 cs in
  let assign cs flat =
    List.fold_left
      (fun rem c ->
        let e = extent.(Char.code c) in
        value.(Char.code c) <- rem mod e;
        rem / e)
      flat (List.rev cs)
    |> ignore
  in
  let result = Tensor.create (Array.of_list (List.map (fun c -> extent.(Char.code c)) (chars out))) in
  for fo = 0 to total (chars out) - 1 do
    assign (chars out) fo;
    let acc = ref 0.0 in
    for fs = 0 to total summed - 1 do
      assign summed fs;
      let product = ref 1.0 in
      List.iter2
        (fun l t ->
          let off =
            List.fold_left (fun o c -> (o * extent.(Char.code c)) + value.(Char.code c)) 0 (chars l)
          in
          product := !product *. (Tensor.unsafe_data t).(off))
        inputs tensors;
      acc := !acc +. !product
    done;
    (Tensor.unsafe_data result).(fo) <- !acc
  done;
  result

(* A random contraction: 1-4 inputs of rank 0-3 over up to four labels
   of extent 1-3, repeated labels (traces) included, and an output that
   keeps a random subset of the labels in random order, from none (a
   scalar) to all (nothing summed).  No extent is 0: [Tensor.create]
   refuses an empty dim, so no contraction can meet one. *)
let random_contraction seed =
  let rng = Rng.create ~seed in
  let n_labels = 1 + Rng.int rng 4 in
  let extents = Array.init n_labels (fun _ -> 1 + Rng.int rng 3) in
  let label () = Rng.int rng n_labels in
  let inputs = List.init (1 + Rng.int rng 4) (fun _ -> List.init (Rng.int rng 4) (fun _ -> label ())) in
  let used = Array.of_list (List.sort_uniq compare (List.concat inputs)) in
  Rng.shuffle rng used;
  let out = Array.to_list (Array.sub used 0 (Rng.int rng (Array.length used + 1))) in
  let letters l = String.concat "" (List.map (fun i -> String.make 1 (Char.chr (97 + i))) l) in
  let spec = String.concat "," (List.map letters inputs) ^ "->" ^ letters out in
  let tensors =
    List.map
      (fun l -> Tensor.rand_normal rng ~scale:1.0 (Array.of_list (List.map (Array.get extents) l)))
      inputs
  in
  (spec, tensors)

let prop_einsum_matches_naive =
  QCheck.Test.make ~name:"einsum = per-point contraction, bit for bit" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let spec, tensors = random_contraction seed in
      let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t) in
      let got = Einsum.einsum spec tensors and expected = naive_einsum spec tensors in
      Tensor.shape got = Tensor.shape expected
      && (bits got = bits expected || QCheck.Test.fail_reportf "%s differs" spec))

let () =
  Alcotest.run "nd"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "create/get/set" `Quick test_create_get_set;
          Alcotest.test_case "ravel" `Quick test_ravel;
          Alcotest.test_case "reshape/transpose" `Quick test_reshape_transpose;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "sum_axis" `Quick test_sum_axis;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "axpy" `Quick test_axpy;
        ] );
      ( "einsum",
        [
          Alcotest.test_case "matmul" `Quick test_einsum_matmul;
          Alcotest.test_case "outer/inner" `Quick test_einsum_outer_inner;
          Alcotest.test_case "batched" `Quick test_einsum_batched;
          Alcotest.test_case "trace/sum" `Quick test_einsum_trace_sum;
          Alcotest.test_case "errors" `Quick test_einsum_errors;
          Alcotest.test_case "repeated output label" `Quick test_einsum_repeated_output_label;
          Alcotest.test_case "scalar output" `Quick test_einsum_scalar_output;
          Alcotest.test_case "non-finite propagation" `Quick test_einsum_nonfinite_propagation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_transpose_involutive;
            prop_sum_axis_preserves_total;
            prop_einsum_matmul_associative;
            prop_einsum_matches_naive;
          ] );
    ]

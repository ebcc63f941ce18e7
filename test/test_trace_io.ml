(* Serialization round-trip tests for operators. *)

module Size = Shape.Size
module Var = Shape.Var
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Trace_io = Pgraph.Trace_io
module Zoo = Syno.Zoo

let size = Alcotest.testable Size.pp Size.equal

let test_size_roundtrip () =
  let cases =
    [
      Size.of_int 4;
      Size.of_var (Var.primary "C_in");
      Size.of_var (Var.coefficient "k");
      Size.mul (Size.of_int 2) (Size.mul (Size.of_var (Var.primary "H")) (Size.var_pow (Var.coefficient "s") (-1)));
      Size.mul (Size.var_pow (Var.coefficient "g") (-1)) (Size.of_var (Var.primary "C_out"));
    ]
  in
  List.iter
    (fun s ->
      match Trace_io.size_of_string (Trace_io.size_to_string s) with
      | Ok s' -> Alcotest.check size (Trace_io.size_to_string s) s s'
      | Error e -> Alcotest.failf "parse of %S failed: %s" (Trace_io.size_to_string s) e)
    cases

let test_size_errors () =
  (* A constant power, a constant product or an exponent sum past
     [max_int] is refused, not wrapped. *)
  let bad =
    [
      "";
      "H^x";
      "-3";
      "0";
      "H^-1";
      "a b";
      "2^62";
      "3^40";
      "2^99999999999";
      "2^61*2^61";
      "3037000500*3037000500";
      "H^4611686018427387903*H";
    ]
  in
  List.iter
    (fun t ->
      match Trace_io.size_of_string t with
      | Error _ -> ()
      | Ok s -> Alcotest.failf "%S should not parse (got %s)" t (Size.to_string s))
    bad;
  Alcotest.(check (result size string)) "2^61 is in range" (Ok (Size.of_int (1 lsl 61)))
    (Trace_io.size_of_string "2^61")

let test_prim_roundtrip () =
  let k = Size.of_var (Var.coefficient "k") in
  let cases =
    [
      Prim.Split (0, 3);
      Prim.Merge (1, k);
      Prim.Shift 2;
      Prim.Unfold (2, 5);
      Prim.Expand 0;
      Prim.Stride (1, k);
      Prim.Reduce (Size.of_var (Var.primary "C_in"));
      Prim.Share (4, Prim.New_group);
      Prim.Share (4, Prim.Current_group);
      Prim.Match 1;
    ]
  in
  List.iter
    (fun p ->
      match Trace_io.prim_of_string (Trace_io.prim_to_string p) with
      | Ok p' ->
          Alcotest.(check bool) (Trace_io.prim_to_string p) true (Prim.equal p p')
      | Error e -> Alcotest.failf "parse of %s failed: %s" (Trace_io.prim_to_string p) e)
    cases

let test_prim_errors () =
  List.iter
    (fun t ->
      match Trace_io.prim_of_string t with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" t)
    [ "Bogus(1)"; "Split(1)"; "Share(1,maybe)"; "Match"; "Reduce()" ]

let test_operator_roundtrip_all_zoo () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Zoo.name ^ " roundtrips")
        true
        (Trace_io.roundtrip_exact e.Zoo.operator))
    Zoo.all

let test_parse_with_comments () =
  let text =
    "# a saved operator\nsyno-operator v1\noutput: M Nd\n# the matmul signature\ninput: M Kd\ntrace: Reduce(Kd); Share(2,new); Match(1)\n"
  in
  match Trace_io.of_string text with
  | Ok op ->
      Alcotest.(check int) "weights" 1 (List.length op.Graph.op_weights);
      Alcotest.(check bool) "same as zoo matmul" true
        (Graph.operator_signature op = Graph.operator_signature Zoo.matmul.Zoo.operator)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_errors () =
  List.iter
    (fun t ->
      match Trace_io.of_string t with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %S" t)
    [
      "";
      "not-a-header\noutput: M\ninput: M\ntrace: ";
      "syno-operator v1\ninput: M\ntrace: Shift(0)";
      (* invalid trace: Match without Share *)
      "syno-operator v1\noutput: M Nd\ninput: M Nd\ntrace: Match(1)";
      (* completes against the wrong shape *)
      "syno-operator v1\noutput: M Nd\ninput: M Kd\ntrace: Shift(0)";
    ]

(* Property: random synthesized operators survive the round trip. *)
let roundtrip_property =
  QCheck.Test.make ~name:"random operators roundtrip" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let open Zoo.Vars in
      let sz = Size.of_var in
      let valuations =
        [ Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:8 ~k:3 ~g:2 ~s:2 () ]
      in
      let base =
        Search.Enumerate.default_config
          ~output_shape:[ sz n; sz c_out; sz h; sz w ]
          ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
          ~valuations ()
      in
      let cfg =
        {
          base with
          Search.Enumerate.max_prims = 7;
          coefficient_candidates = [ sz k; sz s ];
          reduce_candidates = [ sz c_in; sz k ];
          frozen_sizes = [ sz n ];
        }
      in
      let rng = Nd.Rng.create ~seed in
      match Search.Enumerate.random_completion cfg rng ~use_distance:true with
      | None -> true
      | Some op -> Trace_io.roundtrip_exact op)

(* Parser totality: what a damaged checkpoint or a request can hand the
   parsers comes back as a value, never as an exception.  Arbitrary
   bytes are refused; a mutated zoo trace may still parse (a mutation
   can keep it valid), so for those only the absence of a raise is
   checked. *)
let total f s =
  match f s with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let refused f s =
  match f s with
  | Ok _ -> QCheck.Test.fail_report "accepted"
  | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_arbitrary_bytes_refused =
  QCheck.Test.make ~name:"parse and of_string refuse arbitrary bytes" ~count:1000
    QCheck.(make ~print:String.escaped Gen.(string_size ~gen:char (int_range 0 200)))
    (fun s -> refused Trace_io.parse s && refused (Trace_io.of_string ~allow_strided:true) s)

(* Bytes a mutation plants: the grammar's own separators and digits,
   signs and huge numbers, and any byte. *)
let gen_splice =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              "("; ")"; ","; ";"; "*"; "^"; ":"; "'"; "\n"; " "; "#"; "-"; "0"; "1"; "9"; "^-1";
              "^0"; "^99999999999"; "2^99999999999"; "*3^40"; "4611686018427387903";
              "-4611686018427387904"; "new"; "cur"; "Split(0,0)"; "Merge(0,"; "Reduce(";
              "Share(9,new)"; "Match(0)"; "trace:"; "output:"; "input:";
            ] );
        (1, map (String.make 1) char);
      ])

(* One mutation at a position in the text, past the header line most
   of the time: delete a span, plant a splice, or cut the text there. *)
let mutate text =
  QCheck.Gen.(
    let body = 1 + Option.value (String.index_opt text '\n') ~default:(-1) in
    let* pos =
      frequency
        [
          (1, int_bound (String.length text));
          (9, int_range body (max body (String.length text)));
        ]
    in
    let before = String.sub text 0 pos
    and after = String.sub text pos (String.length text - pos) in
    frequency
      [
        ( 2,
          let* len = int_range 1 4 in
          let drop = min len (String.length after) in
          return (before ^ String.sub after drop (String.length after - drop)) );
        (3, map (fun splice -> before ^ splice ^ after) gen_splice);
        (1, return before);
      ])

let gen_mutated_zoo =
  QCheck.Gen.(
    let* entry = oneofl Zoo.all in
    let* rounds = int_range 1 3 in
    let rec go text n = if n = 0 then return text else mutate text >>= fun t -> go t (n - 1) in
    go (Trace_io.to_string entry.Zoo.operator) rounds)

let prop_mutated_zoo_total =
  QCheck.Test.make ~name:"parse and of_string never raise on mutated zoo traces" ~count:2000
    (QCheck.make ~print:String.escaped gen_mutated_zoo)
    (fun s ->
      total Trace_io.parse s
      && total (Trace_io.of_string ~allow_strided:true) s
      && total (Trace_io.of_string ~allow_strided:false) s)

let () =
  Alcotest.run "trace_io"
    [
      ( "sizes",
        [
          Alcotest.test_case "roundtrip" `Quick test_size_roundtrip;
          Alcotest.test_case "errors" `Quick test_size_errors;
        ] );
      ( "prims",
        [
          Alcotest.test_case "roundtrip" `Quick test_prim_roundtrip;
          Alcotest.test_case "errors" `Quick test_prim_errors;
        ] );
      ( "operators",
        [
          Alcotest.test_case "zoo roundtrip" `Quick test_operator_roundtrip_all_zoo;
          Alcotest.test_case "comments" `Quick test_parse_with_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ roundtrip_property; prop_arbitrary_bytes_refused; prop_mutated_zoo_total ] );
    ]

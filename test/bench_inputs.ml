(* The inputs of the bench harness's experiments (bench/main.ml), for the
   cases that check what those experiments compute.  Each such check
   runs at the experiment's smoke size under `dune runtest`.  Where the
   full size costs more than about a second, it runs only when the
   suite is passed [--full], as `dune build @gates-full` does (see
   test/dune); the cheap ones run at both sizes every time. *)

module Size = Shape.Size
module Zoo = Syno.Zoo

let full = Array.mem "--full" Sys.argv

(* The command line without [--full], for [Alcotest.run ~argv]. *)
let argv = Array.of_list (List.filter (( <> ) "--full") (Array.to_list Sys.argv))

(* The budget of the seeded conv searches of the robust, validate,
   analysis and cancel experiments. *)
let search_iterations = if full then 600 else 150

(* The robust, validate and analysis experiments' search: conv
   operators through the Api from seed 2024 at max_prims 6; and its
   top-K. *)
let conv_search ?(iterations = search_iterations) ?guard ?inject ?checkpoint ?checkpoint_every
    ?resume ?max_flops ?validate ?validate_config () =
  Syno.Api.search_conv_operators_run ~iterations ~max_prims:6 ?guard ?inject ?checkpoint
    ?checkpoint_every ?resume ?max_flops ?validate ?validate_config
    ~rng:(Nd.Rng.create ~seed:2024) ~valuations:Syno.Api.default_search_valuations ()

let top (r : Syno.Api.search_run) =
  List.map (fun (c : Syno.Api.candidate) -> (c.signature, c.reward)) r.candidates

(* The conv search space of the par and cancel experiments:
   [N, C_out, H, W] from [N, C_in, H, W] at the search valuations. *)
let conv_space ~max_prims =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let base =
    Search.Enumerate.default_config
      ~output_shape:[ sz n; sz c_out; sz h; sz w ]
      ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
      ~valuations:Syno.Api.default_search_valuations ()
  in
  {
    base with
    Search.Enumerate.max_prims;
    coefficient_candidates = [ sz k; sz s; sz g ];
    reduce_candidates = [ sz c_in; sz k; Size.mul (Size.var_pow s (-1)) (sz c_out) ];
    frozen_sizes = [ sz n ];
  }

(* The reward those searches score with. *)
let conv_reward ~cancel:_ op =
  Search.Reward.score op (List.hd Syno.Api.default_search_valuations)

(* The kernel experiment's shapes, a conv valuation for the catalog and
   matmul's own: the smoke's, and with [--full] the full run's too. *)
let kernel_small =
  ( Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 (),
    Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7 )

let kernel_full =
  ( Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 (),
    Zoo.Vars.matmul_valuation ~m:64 ~n:64 ~k:64 )

let kernel_sizes = kernel_small :: (if full then [ kernel_full ] else [])

(** Execution of materialized-reduction plans (\u{00a7}8).

    {!Staging.optimize} chooses which reductions to materialize early;
    this module actually runs that schedule on [nd] tensors: each stage
    sums one reduction iterator into an intermediate tensor indexed by
    the residual coordinate expressions, and the final stage contracts
    what remains over the output/remaining-reduction loops.

    Every nest of the plan, each stage's and the final contraction's,
    runs {!Reference}'s compiled nest under the one box driver
    {!run_box}; {!nests} builds them for a clip set per nest, and
    {!run_nests} runs them.  {!forward} clips every access, so a point
    where some access leaves its window adds nothing, the rule of every
    loop nest in [lib/lower] but [Einsum_program]'s; {!Specialize} runs
    the same nests with a certificate's clip sets instead.

    The result is numerically identical to {!Reference.forward} (up to
    floating-point association) and is differential-tested against it —
    the staging cost model is thereby validated semantically, not just
    arithmetically.  A plan with no stage forms the same products and
    sums them in the same order, so there it is bit-identical to
    {!Reference.forward} on every input: it runs the same nest, so
    there the comparison checks nothing but the plan's bookkeeping. *)

type t

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t
(** Compiles the operator together with its optimal staging plan.
    Evaluates every size the operator uses, those inside its coordinate
    expressions included, so it raises [Failure] exactly when
    {!Reference.compile} would: when the operator is not instantiable
    under the valuation. *)

val plan : t -> Staging.plan
val num_stages : t -> int
(** Materialized stages (0 = plain loop nest). *)

val operator : t -> Pgraph.Graph.operator
val valuation : t -> Shape.Valuation.t
val reference : t -> Reference.t
(** The reference lowering of the same operator at the same valuation,
    compiled on each call: {!compile} does not build it. *)

type fdim = { expr : Coord.Ast.t; extent : int; lo : int }
(** A runtime factor dimension: the coordinate expression that indexes
    it, its extent, and the value corresponding to index 0.  Accesses
    outside [lo, lo + extent) clip to zero. *)

type factor = { dims : fdim list; data : Nd.Tensor.t }

val initial_factors : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> factor list
(** The factor list the first stage starts from: the input gather
    followed by one factor per weight group, in operator order.  This is
    where {!run_nests}, and so both {!forward} and [Specialize.forward],
    check their arguments, through {!Reference.check_arguments}: raises
    [Invalid_argument] naming the input or the weight whose shape
    differs from the operator's at this valuation, or when the weight
    count is wrong. *)

(** {2 Symbolic plan}

    The complete loop-nest structure of {!forward}, exported so the
    static layer ([Analysis.Regions], [Analysis.Certify]) consumes the
    very bookkeeping {!nests} compiles — they cannot drift. *)

type use = {
  u_expr : Coord.Ast.t;  (** the original indexing expression *)
  u_lo : int;  (** start of the in-bounds window *)
  u_extent : int;  (** window length; indices outside clip to zero *)
  u_slot : int;  (** slot of the new tensor carrying the residual; -1 if consumed *)
  u_base : int;  (** residual constant when consumed ([u_slot = -1]) *)
  u_coef : int;  (** linear coefficient of the reduced iterator *)
}
(** One factor-dimension access of a materialization stage.  The value
    the executor produces at position [pos] and reduction step [r] is
    [(if u_slot >= 0 then pos.(u_slot) + lows.(u_slot) else u_base) +
    u_coef * r]. *)

type stage_sym = {
  ss_dom : int;  (** extent of the reduced iterator *)
  ss_extents : int array;  (** dims of the materialized tensor *)
  ss_lows : int array;  (** value of position 0 per materialized dim *)
  ss_uses : use array array;  (** per participating factor, per dim *)
  ss_participating : int array;  (** indices into the incoming factor list *)
  ss_others : int array;  (** indices of untouched factors, order preserved *)
  ss_new_dims : fdim list;  (** the materialized factor's dim list *)
}

type final_sym = {
  fs_out_ids : int array;  (** output iterator ids, loop order *)
  fs_out_doms : int array;  (** output iterator extents *)
  fs_red_ids : int array;  (** remaining reduction iterator ids, loop order *)
  fs_red_doms : int array;  (** remaining reduction extents *)
  fs_env_size : int;  (** size of the iterator environment array *)
  fs_factors : (Coord.Ast.t * int * int) array array;
      (** per remaining factor, per dim: (expr, window lo, window extent) *)
}

val symbolic_plan : t -> stage_sym list * final_sym
(** One {!stage_sym} per materialization stage in plan order (the next
    stage's factor list is the materialized tensor followed by the
    [ss_others] factors in order), then the final contraction.  Pure
    arithmetic, built once by {!compile}: allocates no tensor. *)

(** {2 The box driver and stage bookkeeping} *)

val run_box :
  ?cancel:Robust.Cancel.t ->
  cost:int ->
  extents:int array ->
  (unit -> (int array -> int -> unit) * (unit -> unit)) ->
  unit
(** [run_box ~cost ~extents make] calls [element pos w] for every
    position [pos] of a nest of dims [extents], where [w] is [pos]'s
    row-major offset; [make ()] builds one [(element, finish)], with
    private scratch, per range run, and [finish ()] ends the range, so
    work that [element] defers (the forward's blocks) never crosses a
    range.  A range decodes its first position once and steps [pos]
    and [w] with a carry, so [element] must not write [pos].  Nests
    whose volume times [cost] (estimated scalar work per element) is
    large enough run on the default pool, others
    sequentially on the caller; each element must write only its own
    output cell, so results are bit-identical at any pool size.
    [cancel] is polled every few thousand elements of a sequential run
    and at every pool range claim. *)

val materialize :
  stage_sym -> factor list -> (float array array -> float array -> unit) -> factor list
(** [materialize sym factors fill] allocates the stage's new tensor,
    has [fill datas out] compute its data from the participating
    factors' data, and returns the next factor list. *)

type access = {
  acc_expr : Coord.Ast.t;  (** the indexing expression *)
  acc_lo : int;  (** start of the in-bounds window *)
  acc_extent : int;  (** window length; indices outside clip to zero *)
  acc_values : (int * int) option;
      (** inclusive range of values the executor actually produces for
          this access, when determined positionally (intermediate
          stages enumerate the dense residual window shifted by the
          reduction term); [None] in the final stage, where the
          expression is evaluated directly over the remaining iterator
          domains and the caller can bound it itself *)
}
(** One factor-dimension access the executor performs, as seen by the
    static bounds verifier ({!Analysis.Verify}). *)

val access_plan : t -> access list list
(** The complete static access structure of {!forward}: one list per
    materialization stage (in plan order) followed by the final
    contraction stage.  Mirrors the executor's factor bookkeeping
    exactly but allocates no tensor. *)

(** {2 The nests} *)

val nests : t -> int list array -> Reference.nest array
(** [nests t plan] compiles every nest of the plan, each stage's in plan
    order and then the final contraction's, nest [k] with clip set
    [plan.(k)]: the flat indices of the nest's accesses that may leave
    their window, numbered factor-major in {!access_plan}'s order.  An
    unlisted access is read unchecked.  Raises [Invalid_argument] when
    [plan] does not hold one clip set per nest or lists an index
    outside its nest's accesses. *)

val run_nests :
  ?cancel:Robust.Cancel.t ->
  t ->
  Reference.nest array ->
  input:Nd.Tensor.t ->
  weights:Nd.Tensor.t list ->
  Nd.Tensor.t
(** Runs nests built by {!nests} for [t]: from {!initial_factors},
    which checks the arguments, each stage's nest over its box through
    {!run_box} into the stage's tensor ({!materialize}), then the final
    nest over the whole output.  [cancel] is polled at every stage
    boundary and as {!run_box} polls it. *)

val forward :
  ?cancel:Robust.Cancel.t -> t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** {!run_nests} over nests that list every access, built on each call
    ({!compile} builds none, so callers that only certify or analyse do
    not pay for them): a point where some access leaves its window adds
    nothing.  Nests whose estimated work is large enough run on the
    default pool ({!Par.Pool.get_default}) through {!run_box},
    bit-identically to the sequential loop at any pool size.

    [cancel] makes the executor a cancellation safe point: the token is
    polled at every stage boundary, every few thousand elements inside
    each sequential element loop, and at every range claim when a nest
    runs on the pool, raising [Robust.Cancel.Cancelled] promptly when
    it trips. *)

(** Iteration-space partition certificates.

    {!Verify} proves {e which accesses} of a staged program can fall
    out of bounds; this pass turns those proofs into {e where}: for
    every loop nest of {!Lower.Staged_exec.forward} (each
    materialization stage, then the final contraction) it partitions
    the positional iteration space into a maximal {e interior} box —
    where every access of every factor is provably in-window — and
    explicit {e border} strips, each carrying the exact set of accesses
    that may clip inside it.  {!Lower.Specialize} compiles the interior
    checkless and guards only the strips' listed accesses.

    Everything here is arithmetic on
    {!Lower.Staged_exec.symbolic_plan}: no tensor is allocated
    (provable via [Nd.Tensor.allocations]), so certificates are cheap
    enough to build during search. *)

type nest_sym = Stage of Lower.Staged_exec.stage_sym | Final of Lower.Staged_exec.final_sym

val nests : Lower.Staged_exec.t -> nest_sym array
(** The executor's loop nests in execution order: one [Stage] per
    materialization stage, then [Final]. *)

val nest_axes : nest_sym -> int array
(** The nest's positional box (reduction iterators are never
    partitioned). *)

val access_count : nest_sym -> int

val access_within :
  lookup:(Shape.Var.t -> int) ->
  nest_sym ->
  lo:int array ->
  hi:int array ->
  int ->
  bool
(** [access_within ~lookup nest ~lo ~hi idx]: is the [idx]th access
    (factor-major, executor order — the order
    {!Lower.Staged_exec.access_plan} flattens to and
    {!Verify.region.rg_dim} counts in) provably inside its window at
    every position of the inclusive box [lo, hi]?  Stage accesses are
    decided exactly (they are linear in their position axis); final
    accesses soundly, in the {!Interval} domain.  This single decision
    procedure is shared with {!Certify}, which re-derives every piece
    of a plan against it. *)

type nest_summary = {
  ns_what : string;  (** ["stage k"] or ["final"] *)
  ns_axes : int array;
  ns_pieces : int;
  ns_strips : int;  (** border (guarded) pieces *)
  ns_interior_fraction : float;
}

type t = {
  rc_plan : Lower.Specialize.plan;
  rc_nests : nest_summary array;
  rc_verdict : Verify.verdict;  (** {!Verify.program} of the operator *)
  rc_interior_fraction : float;
      (** volume-weighted over all nests: the fraction of executed
          elements that run the checkless path *)
}

val of_staged : Lower.Staged_exec.t -> t
(** Builds the full certificate for a compiled staged program.  Raises
    [Failure] only if the operator is not instantiable under its
    valuation (impossible for a successfully compiled program). *)

val strips : t -> int
(** Total border strips across all nests. *)

val summary_to_string : t -> string
(** One machine-readable line:
    [verdict=proved|padded|violation interior=F strips=N nests=K]. *)

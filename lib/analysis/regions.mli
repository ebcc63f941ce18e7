(** Clip-set certificates.

    {!Verify} proves {e which accesses} of a staged program can fall
    out of bounds; this pass turns those proofs into what the
    specialized executor needs: for every loop nest of
    {!Lower.Staged_exec.forward} (each materialization stage, then the
    final contraction), the {e clip set} — the accesses that are not
    provably in-window over the nest's whole box.  {!Lower.Specialize}
    clips exactly those per output, and reads every other access
    unchecked.

    Everything here is arithmetic on
    {!Lower.Staged_exec.symbolic_plan}: no tensor is allocated
    (provable via [Nd.Tensor.allocations]), and no value of any axis is
    enumerated, so certificates are cheap enough to build during
    search. *)

type nest_sym = Stage of Lower.Staged_exec.stage_sym | Final of Lower.Staged_exec.final_sym

val nests : Lower.Staged_exec.t -> nest_sym array
(** The executor's loop nests in execution order: one [Stage] per
    materialization stage, then [Final]. *)

val access_count : nest_sym -> int

val access_within : lookup:(Shape.Var.t -> int) -> nest_sym -> int -> bool
(** [access_within ~lookup nest idx]: is the [idx]th access (factor-major,
    executor order — the order {!Lower.Staged_exec.access_plan} flattens
    to and {!Verify.region.rg_dim} counts in) provably inside its window
    at every point of the nest, reductions included?  Stage accesses
    are decided exactly (they are linear in their position axis and the
    reduced iterator); final accesses soundly, in the {!Interval}
    domain.  This single decision procedure is shared with {!Certify},
    which re-derives every clip set of a plan against it. *)

type t = {
  rc_plan : Lower.Specialize.plan;  (** the clip set of every nest *)
  rc_verdict : Verify.verdict;  (** {!Verify.program} of the operator *)
  rc_interior_fraction : float;
      (** the share of accesses the certificate proves in-window, so
          that the executor reads them unchecked, each nest's accesses
          weighted by its positional volume (a stage's materialized
          tensor, the final nest's output); 1.0 when every access is
          proved.  Computed from the clip sets alone, with no per-value
          scan.  [Certify.specialize ~mode:`Auto] no longer declines on
          it: a nest whose every access may clip still runs clipped. *)
}

val of_staged : Lower.Staged_exec.t -> t
(** Builds the full certificate for a compiled staged program.  Raises
    [Failure] only if the operator is not instantiable under its
    valuation (impossible for a successfully compiled program). *)

val clips : t -> int
(** Total accesses listed across all nests. *)

val summary_to_string : t -> string
(** One machine-readable line:
    [verdict=proved|padded|violation interior=F clips=N nests=K]. *)

(** Proof-guided kernel specialization.

    {!Staged_exec.forward} runs every nest of a staged program — each
    materialized stage, then the final contraction — through
    {!Reference}'s compiled nest with every access in its clip set.
    This module runs the very same nests ({!Staged_exec.nests},
    {!Staged_exec.run_nests}) with a {e clip-set certificate} instead:
    per output, each nest clips its reduction box exactly per axis for
    the accesses the certificate lists as may-clip, and runs the
    clipped box as unchecked strided runs; every unlisted access is
    read unchecked.  An output whose box is empty is left at [+0.0].

    An output the clip cannot bound exactly runs the nest's own guarded
    odometer, which visits the whole box and skips the points where a
    listed access leaves its window: some listed dim moves with two or
    more reduction axes and leaves its window inside the clipped box,
    or some final dim is non-affine in a reduction iterator (then every
    final output).  {!clips_exactly} says whether that can happen.  A
    stage is a contraction over its positions with one reduction axis,
    and its dims are always affine, so its clip is always exact.

    The output is bit-identical to {!Staged_exec.forward} on every
    input, non-finite values included: a clip on an access that stays
    in its window never trims a point, so both visit the same points in
    the same order and form the same products.  Comparing the two
    therefore checks the certificate alone: a dropped clip reads out of
    window unchecked, where the full clip set adds nothing.

    Certificates are produced by [Analysis.Regions] and validated by
    [Analysis.Certify]; {!compile} itself only shape-checks the plan.
    Running a plan that neither came from [Regions] nor passed [Certify]
    is unsound (unlisted accesses are read unchecked). *)

type plan = int list array
(** One clip set per materialization stage in plan order, then one for
    the final contraction: [Array.length plan = num_stages + 1].  A
    clip set lists the flat indices of the nest's accesses that may
    leave their window, numbering them factor-major in executor order
    (the order {!Staged_exec.access_plan} lists them). *)

type t

val compile : Staged_exec.t -> plan -> t
(** Compiles each nest ({!Staged_exec.nests}).  Raises
    [Invalid_argument] if the plan's shape does not match the executor
    (wrong number of clip sets, a clip index outside its nest's
    accesses) — semantic soundness is [Analysis.Certify]'s job.  A listed index is a set member: listing
    it twice changes nothing. *)

val staged : t -> Staged_exec.t

val clips_exactly : t -> bool
(** Every nest clips every output exactly ({!Reference.exact}): no
    final dim is non-affine in a reduction iterator, and no listed dim
    moves with two or more reduction axes.  When [false], some final
    outputs (all of them, for a non-affine dim) run the nest's guarded
    odometer. *)

val forward :
  ?cancel:Robust.Cancel.t -> t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** {!Staged_exec.run_nests} over the certificate's nests:
    bit-identical to {!Staged_exec.forward} on the same operator, on
    every input, with the same argument checks, pool use and [cancel]
    polling. *)

(** {2 Seeded clip-set corruption}

    Mirrors the [Corrupt_expr] pattern of the bounds verifier: faults
    injected downstream of certification, used to demonstrate that
    translation validation is load-bearing. *)

type fault =
  | Dropped_clip
      (** unlist a may-clip access: execution-visible and unsafe (the
          access would be read unchecked), so never run *)
  | Spurious_clip  (** list an access the certificate proved in-window *)
  | Duplicate_clip  (** list a may-clip access twice *)

val fault_to_string : fault -> string

val corrupt : fault -> Staged_exec.t -> plan -> plan option
(** Applies the fault to the first nest that can host it; [None] if no
    nest can.  [Spurious_clip] and [Duplicate_clip] are
    execution-invisible: the corrupted plan still computes
    bit-identical outputs (a clip on a proved access never trims, and
    the clip set is a set), so only [Analysis.Certify] can reject
    them. *)

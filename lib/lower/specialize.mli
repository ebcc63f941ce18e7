(** Proof-guided kernel specialization.

    {!Staged_exec} and {!Reference} window-test every tensor access and
    clip out-of-bounds reads to zero.  When the static layer has proved
    where clipping can actually happen, those tests are pure overhead
    over most of the iteration space.  This module compiles a staged
    program together with an iteration-space {e partition certificate}
    into a specialized executor:

    - {e interior} pieces — where every access is proved in-bounds —
      run checkless inner loops with constant-stride offset arithmetic
      and unchecked array reads;
    - in the final contraction, each output of a {e border} piece clips
      its own reduction box exactly per axis, by {!Reference.clip} (the
      clip routine the reference backward uses), and runs the clipped
      box through the same checkless loops; an output whose box is empty
      is written [+0.0];
    - the rest runs the interpreter's own guarded loops,
      {!Staged_exec.stage_loop} and {!Staged_exec.final_loop},
      window-testing exactly the accesses the certificate lists as
      may-clip and nothing else: stage border strips, a border output
      with a dim that moves with two or more reduction axes and leaves
      its window inside the clipped box ({!clips_exactly} says whether
      that can happen), and every border output of a call whose final
      factors hold a NaN or an infinity, or values whose products could
      overflow (there, a clipped point's product is NaN, not [+-0.0],
      and skipping it would change the sum).

    Every piece is driven by {!Staged_exec.run_box}, so pool use and
    cancellation polling are the interpreter's own.

    Each final-contraction dim is split at [Add]/[Sub] into additive
    terms by {!Reference.split}, the splitter the reference
    backward shares.  Affine terms (an iterator-free [Div]/[Mod], such as
    [Unfold]'s [k / 2] centring offset, counts as a constant) become
    constant strides; a non-affine term over output iterators only
    (the grouped [C_in*g^-1*(i1 / C_out*g^-1)]) is a residue evaluated
    once per output element.  Only a non-affine term that mentions a
    reduction iterator stays guarded, and it sends the whole final
    nest, interior included, down {!Staged_exec.final_loop} (interior
    pieces with nothing checked);
    {!checkless_volume} shows how much of the certified interior
    escaped that.  Stage nests are always affine.

    The output is bit-identical to {!Staged_exec.forward} on every
    input, non-finite values included: pieces partition only
    positional axes, so every output element is computed whole by
    exactly one piece, with products formed in factor order and
    reductions accumulated in the interpreter's order; a clipped box
    keeps that order and drops only points whose product is [+-0.0],
    which leave the interpreter's sum unchanged.

    Certificates are produced by [Analysis.Regions] and validated by
    [Analysis.Certify]; {!compile} itself only shape-checks the plan.
    Running a plan that neither came from [Regions] nor passed
    [Certify] is unsound (interior pieces index unchecked). *)

type piece = {
  pc_lo : int array;  (** inclusive lower corner, one entry per axis *)
  pc_hi : int array;  (** inclusive upper corner *)
  pc_interior : bool;  (** checkless fast path when [true] *)
  pc_clips : int list;
      (** flat indices of the accesses that may clip inside this piece,
          numbering the nest's accesses factor-major in executor order
          (the same order {!Staged_exec.access_plan} lists them) *)
}

type partition = piece list

type plan = partition array
(** One partition per materialization stage in plan order, then one for
    the final contraction: [Array.length plan = num_stages + 1].  A
    stage's axes are the dims of its materialized tensor
    ({!Staged_exec.stage_sym.ss_extents}); the final nest's axes are
    the output iterators ({!Staged_exec.final_sym.fs_out_doms}).
    Reduction iterators are never partitioned. *)

val piece_volume : piece -> int

val interior_volume : plan -> int
(** The volume the plan certifies interior: [piece_volume] summed over
    the [pc_interior] pieces of every nest. *)

type t

val compile : Staged_exec.t -> plan -> t
(** Precomputes the per-piece offset algebra.  Raises [Invalid_argument]
    if the plan's shape does not match the executor (wrong number of
    partitions, piece rank mismatch, piece outside its nest's box, clip
    index outside its nest's accesses) —
    semantic soundness is [Analysis.Certify]'s job. *)

val staged : t -> Staged_exec.t
val plan : t -> plan

val checkless_volume : t -> int
(** The positional volume that runs the checkless loops: every stage
    interior piece, plus the final interior pieces unless some final
    access is non-affine in a reduction iterator (then the whole final
    nest runs guarded).  Equals {!interior_volume} of the plan exactly
    when every interior piece takes the fast path. *)

val clips_exactly : t -> bool
(** Every border output of the final nest clips exactly: no final access
    is non-affine in a reduction iterator, and no final dim moves with
    two or more reduction axes.  When [false], some border outputs (all
    of them, for a non-affine access) may run the guarded loop. *)

val forward :
  ?cancel:Robust.Cancel.t -> t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** Bit-identical to {!Staged_exec.forward} on the same operator, on
    every input, and checks its arguments the same way
    ({!Staged_exec.initial_factors}).  Once per call, before the final
    nest, it scans the final factors' values (a NaN, an infinity, or a
    product of per-factor maxima that overflows keeps the border
    outputs on the guarded loop).
    Every piece runs through {!Staged_exec.run_box}: large pieces on the
    default pool, with [cancel] polled every few thousand elements
    sequentially and at every pool range claim, exactly like the
    interpreter. *)

(** {2 Seeded plan corruption}

    Mirrors the [Corrupt_expr] pattern of the bounds verifier: faults
    injected downstream of certification, used to demonstrate that
    translation validation is load-bearing. *)

type fault =
  | Overlap_strip  (** split a piece into two halves sharing a plane *)
  | Duplicate_strip  (** append a copy of an existing piece *)
  | Spurious_clip  (** guard an access the certificate proved in-bounds *)
  | Cover_gap  (** shrink a piece, leaving cells uncovered *)

val fault_to_string : fault -> string

val corrupt : fault -> Staged_exec.t -> plan -> plan option
(** Applies the fault to the first nest that can host it; [None] if no
    nest can.  [Overlap_strip], [Duplicate_strip] and [Spurious_clip]
    are execution-invisible: the corrupted plan still computes
    bit-identical outputs (overlapped and duplicated cells recompute
    the same values; a spurious guard never fires), so only
    [Analysis.Certify] can reject them.  [Cover_gap] leaves stale
    zeros and is visible — it checks that Certify agrees with
    execution where execution {e can} tell. *)

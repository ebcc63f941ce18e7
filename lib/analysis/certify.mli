(** Translation validation for specialized kernel plans.

    {!Regions} builds a partition certificate and {!Lower.Specialize}
    executes it — with checkless unchecked reads over interior pieces,
    so a miscompiled plan is not a performance bug but a soundness
    bug.  This pass re-derives every claim a plan makes before it is
    allowed to run:

    - the partition covers each nest's iteration space {e exactly
      once}: piece volumes sum to the box and no two pieces overlap
      (checked symbolically — no iteration-space enumeration);
    - interior pieces re-verify every access Proved in-window via
      {!Regions.access_within};
    - border pieces guard exactly the accesses that may clip: an
      unguarded may-clip access rejects, and so does a guard on an
      access proved in-window (spurious guards signal miscompilation);
    - the clip sets are cross-checked against {!Verify.staged}'s
      independently recorded padded regions; a [Violation] verdict
      never certifies.

    Rejection is the typed admission failure
    [Robust.Guard.Static_violation], same as {!Verify.admit}.  The
    whole pass is arithmetic: zero tensor allocations (provable via
    [Nd.Tensor.allocations]).  The seeded {!Lower.Specialize.fault}
    corruptions — overlap, duplicate, spurious clip — execute with
    bit-identical outputs and are caught {e only} here. *)

type stats = {
  ct_nests : int;
  ct_pieces : int;
  ct_interior_pieces : int;
  ct_cells : int;  (** total positional cells across nests *)
  ct_interior_cells : int;
      (** cells the certificate proves interior; the cells that actually
          run checkless are [Lower.Specialize.checkless_volume] *)
}

val validate :
  Lower.Staged_exec.t -> Lower.Specialize.plan -> (stats, Robust.Guard.kind) result
(** Validates [plan] against the executor's symbolic loop structure. *)

val compile :
  Lower.Staged_exec.t ->
  Lower.Specialize.plan ->
  (Lower.Specialize.t, Robust.Guard.kind) result
(** [validate] then {!Lower.Specialize.compile}: the only path the
    rest of the tree should use to obtain a runnable specialized
    kernel. *)

val specialize :
  ?mode:[ `Auto | `On ] ->
  Lower.Staged_exec.t ->
  (Lower.Specialize.t option, Robust.Guard.kind) result
(** The profitability rule, in one place: certify the staged
    executor's {!Regions} certificate and {!compile} the specialized
    kernel.  [`Auto] (the default) declines quietly with [Ok None] when
    the certificate has no interior, its verdict is a [Violation], or
    translation validation rejects the plan; [`On] always tries and
    returns the rejection. *)

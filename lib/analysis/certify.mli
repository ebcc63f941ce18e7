(** Translation validation for specialized kernel plans.

    {!Regions} builds a clip-set certificate and {!Lower.Specialize}
    executes it — reading every unlisted access unchecked, so a
    miscompiled plan is not a performance bug but a soundness bug.  This
    pass re-derives every claim a plan makes before it is allowed to
    run, nest by nest:

    - every clip index is in range and listed once;
    - every unlisted access is proved in-window via
      {!Regions.access_within};
    - no listed access is proved in-window (a guard that can never fire
      signals miscompilation);
    - the clip sets are cross-checked against {!Verify.staged}'s
      independently recorded padded regions; a [Violation] verdict
      never certifies.

    Rejection is the typed admission failure
    [Robust.Guard.Static_violation], same as {!Verify.admit}.  The
    whole pass is arithmetic: zero tensor allocations (provable via
    [Nd.Tensor.allocations]).  The seeded {!Lower.Specialize.fault}
    corruptions [Spurious_clip] and [Duplicate_clip] execute with
    bit-identical outputs and are caught {e only} here; [Dropped_clip]
    would read out of bounds and is never run. *)

type stats = {
  ct_nests : int;
  ct_accesses : int;  (** accesses across all nests *)
  ct_clips : int;  (** accesses the plan lists as may-clip *)
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
    the certificate's verdict is a [Violation] or translation
    validation rejects the plan; [`On] always tries and returns the
    rejection.  Every nest runs clipped whatever its clip set, so
    neither mode declines on {!Regions.t.rc_interior_fraction}. *)

(** Analytic accuracy proxy for MCTS rollouts.

    Training every rollout sample is unaffordable even for the paper
    (which caps evaluation at 0.1 GPU-hours per sample by early
    termination); rollouts instead score an operator by cheap structural
    features that correlate with trainability: spatial information
    mixing (receptive field), channel mixing through weights, parameter
    capacity, and staying within the FLOPs budget.  Every search path in
    the [syno] layer ranks its results by this proxy alone; none trains a
    candidate.  Training a found operator is a separate, explicit step
    ([Syno.Api.train_entry], [syno train]). *)

type features = {
  spatial_mixing : bool;
      (** some input expression combines a spatial iterator with a
          reduction (window/neighborhood access) or shifts it *)
  channel_mixing : bool;
      (** a weight contracts a reduction iterator also used by the
          input (learnable mixing, not just gating) *)
  channel_diversity : bool;
      (** some output iterator indexes a weight without indexing the
          input: each output channel gets its own filter, avoiding the
          replicated-channel pattern of \u{00a7}5.1 *)
  params : int;
  flops : int;
  weight_groups : int;
  uses_expand : bool;
}

val features : Pgraph.Graph.operator -> Shape.Valuation.t -> features

val score : ?flops_budget:int -> Pgraph.Graph.operator -> Shape.Valuation.t -> float
(** In [[0, 1]]; 0 for operators over the FLOPs budget. *)

(** Supervised training loops for the vision proxy task, guarded by
    numerical sentinels.

    Candidate operators can make a model numerically fragile: a
    miscompiled or badly scaled operator drives the loss to NaN/Inf or
    into sustained blow-up.  The sentinels catch both during training
    and abort with a typed {!outcome}, so search-side callers can
    quarantine the candidate ([Robust.Guard.Diverged]) instead of
    wasting the remaining epochs or reporting garbage accuracy. *)

type batch = { images : Nd.Tensor.t; labels : int array }

(** How a training run ended. *)
type outcome =
  | Completed
  | Aborted_non_finite of { epoch : int; step : int }
      (** a step produced a NaN/Inf loss (step numbered within the
          epoch, from 1) *)
  | Aborted_diverged of { epoch : int; loss : float; initial : float }
      (** epoch loss exceeded [divergence_factor * initial] for
          [divergence_patience] consecutive epochs *)
  | Aborted_cancelled of { epoch : int; step : int }
      (** the cancellation token tripped; [step] is the step (within
          [epoch], from 1) that was about to run when the trip was
          observed *)

val outcome_label : outcome -> string
(** [completed], [non_finite_loss], [diverged] or [cancelled]. *)

type sentinel = {
  check_finite : bool;  (** abort on a non-finite step loss *)
  divergence_factor : float;  (** the [k] in [loss > k * initial] *)
  divergence_patience : int;  (** consecutive over-threshold epochs *)
}

val sentinel :
  ?check_finite:bool -> ?divergence_factor:float -> ?divergence_patience:int -> unit -> sentinel
(** The default sentinel (finite check on, factor 10, patience 2) with
    fields overridden.  Raises [Invalid_argument] unless
    [divergence_factor > 0] and [divergence_patience >= 1]. *)

type history = {
  epoch_losses : float list;  (** completed epochs only *)
  epoch_accuracies : float list;
  final_train_accuracy : float;
      (** from the last {e completed} epoch (0 if none completed) *)
  final_eval_accuracy : float;
  outcome : outcome;
  aborted : bool;  (** [outcome <> Completed] *)
}

val fit :
  ?log:(epoch:int -> loss:float -> accuracy:float -> unit) ->
  ?clip_norm:float ->
  ?sentinel:sentinel ->
  ?cancel:Robust.Cancel.t ->
  Model.t ->
  Optimizer.t ->
  epochs:int ->
  train:batch list ->
  eval:batch list ->
  history
(** Cosine learning-rate schedule over the full run.  [clip_norm]
    applies global gradient-norm clipping on every step
    ({!Optimizer.clip_global_norm}).  The [sentinel] (default: finite
    check on, factor 10, patience 2) may abort the run early; the divergence
    baseline is the first completed epoch's mean loss.  [cancel] is
    polled before every training step: a trip ends the run with
    [Aborted_cancelled] (no exception), keeping the stats of every
    completed epoch — so a graceful shutdown still reports the partial
    history. *)

val evaluate : Model.t -> batch list -> float

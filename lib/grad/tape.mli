(** Reverse-mode automatic differentiation over [nd] tensors.

    A {e tape} records the forward computation as a sequence of nodes;
    {!backward} replays it in reverse, accumulating gradients.  This is
    the training engine standing in for PyTorch autograd: backbone
    models wrap their parameters as tape variables each step, and
    synthesized operators plug in through {!custom} with the exact
    gradients computed by [Lower.Reference.backward]. *)

type t
(** The tape. *)

type v
(** A tracked value. *)

val create : unit -> t
val var : t -> Nd.Tensor.t -> v
(** A leaf variable (parameter or input). *)

val constant : t -> Nd.Tensor.t -> v
(** A value excluded from gradient accumulation. *)

val data : v -> Nd.Tensor.t
val grad : v -> Nd.Tensor.t
(** Accumulated gradient; zeros before {!backward} runs. *)

val custom :
  t ->
  inputs:v list ->
  output:Nd.Tensor.t ->
  vjp:(grad_out:Nd.Tensor.t -> Nd.Tensor.t option list) ->
  v
(** Register an operation.  [vjp ~grad_out] returns one cotangent per
    input ([None] for inputs that need no gradient, e.g. integer-like
    data); it runs during {!backward}. *)

val backward : t -> v -> unit
(** Seed the given (scalar or any-shape) value with ones and propagate.
    Raises [Invalid_argument] if the value is not on this tape. *)

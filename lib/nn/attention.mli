(** Multi-head causal self-attention and the transformer block used by
    the GPT-2 proxy.  The Q, K, V projections are pluggable layers so a
    Syno-synthesized operator can replace them (\u{00a7}9.3). *)

val causal_self_attention :
  Nd.Rng.t ->
  embed:int ->
  heads:int ->
  ?qkv:Layer.t * Layer.t * Layer.t ->
  unit ->
  Layer.t
(** Input and output [[B; T; embed]].  Defaults to linear projections
    when [qkv] is omitted. *)

val layer_norm : Nd.Rng.t -> dim:int -> Layer.t

val transformer_block :
  Nd.Rng.t ->
  embed:int ->
  heads:int ->
  ?qkv:Layer.t * Layer.t * Layer.t ->
  unit ->
  Layer.t
(** Pre-norm block: [x + attn(ln x)] then [x + mlp(ln x)]. *)

(** Deterministic pseudo-random number generator (splitmix64-based).

    All stochastic components of the reproduction (weight init, data
    synthesis, search sampling) draw from explicitly seeded generators
    so every experiment is bit-reproducible. *)

type t

val create : seed:int -> t
val split : t -> t
(** An independent generator derived from the current state. *)

val int : t -> int -> int
(** [int t bound] in [[0, bound)]; [bound > 0]. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
val normal : t -> float
(** Standard normal (Box–Muller). *)

val bool : t -> bool
val shuffle : t -> 'a array -> unit

(** Deterministic pseudo-random sources.

    All experiment randomness flows through these so every run is
    reproducible from its seed. *)

type t

val create : int64 -> t
(** Splitmix64 stream seeded explicitly. *)

val next64 : t -> int64
(** The next 64 random bits. *)

val int : t -> int -> int
(** Uniform over [0 .. bound - 1]; [bound] must be positive. *)

val bool : t -> bool
(** A fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

val split : t -> t
(** Independent child stream (advances the parent). *)

(** Three-valued logic (0, 1, X) used by the PODEM engine. *)

type v = F | T | X

val of_bool : bool -> v
val equal : v -> v -> bool
val known : v -> bool
val lnot : v -> v
val land_ : v -> v -> v
val lor_ : v -> v -> v
val lxor_ : v -> v -> v
val to_char : v -> char

(** Three-valued logic (0, 1, X) used by the PODEM engine. *)

type v = F | T | X

val of_bool : bool -> v
(** [T] for [true], [F] for [false]. *)

val equal : v -> v -> bool
(** Same value; [X] equals only [X]. *)

val known : v -> bool
(** [F] or [T]. *)

val lnot : v -> v
(** Negation; [X] stays [X]. *)

val land_ : v -> v -> v
(** Conjunction: [F] if either side is [F], [T] if both are [T], else
    [X]. *)

val lor_ : v -> v -> v
(** Disjunction: [T] if either side is [T], [F] if both are [F], else
    [X]. *)

val lxor_ : v -> v -> v
(** Exclusive or: [X] if either side is [X]. *)

val to_char : v -> char
(** ['0'], ['1'] or ['x']. *)

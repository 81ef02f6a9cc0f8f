(** Path counting — Procedure 1 of the paper.

    The label [n_p g] of a line is the number of distinct paths from primary
    inputs to [g]. Inputs get label 1; a gate output gets the sum of its
    fanin labels (fanout branches inherit the stem label, which the implicit
    branch representation gives for free); the circuit total is the sum of the
    primary-output labels, each output counted separately. *)

exception Overflow
(** Raised when a label would exceed [max_int] (the paper's circuits peak at
    ~2.3e7, far below; synthetic stress circuits can overflow). *)

val labels : Circuit.t -> int array
(** Labels indexed by node id; dead nodes get 0. Raises {!Overflow}. *)

val total : Circuit.t -> int
(** Total number of input-to-output paths in the circuit. *)

val enumerate : ?cap:int -> Circuit.t -> int array list
(** Explicit list of paths, each an array of node ids from a primary input to
    a primary output (each primary-output designation yields its own paths).
    Intended for small circuits and cross-checking; stops after [cap] paths
    (default 1_000_000) and raises [Failure] if the cap is hit. *)

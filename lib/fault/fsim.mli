(** Parallel-pattern single-fault-propagation stuck-at fault simulator
    (the FSIM [17] stand-in).

    Patterns are processed 64 at a time; for each fault the effect is
    propagated event-driven from the fault site towards the outputs, in
    nondecreasing level ({!Level_queue}), and the returned mask has bit [i]
    set iff pattern [i] of the batch detects the fault on some primary
    output. *)

type t

val create : Compiled.t -> t
(** A simulator over a compiled circuit, with no patterns loaded. *)

val load_patterns : t -> int64 array -> unit
(** Simulate the fault-free circuit on a 64-pattern batch ([pi_words] indexed
    like [Compiled.inputs]). Must be called before {!detect}. *)

val detect : t -> Fault.t -> int64
(** Detection mask of the fault under the loaded batch. Works in buffers
    the [t] owns and allocates nothing, apart from boxing a nonzero
    mask. *)

val detect_single : t -> Fault.t -> bool array -> bool
(** Convenience: does this single input vector detect the fault? Loads a
    batch, so it invalidates previously loaded patterns. *)

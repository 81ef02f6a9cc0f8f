(** Procedure 2: reduce the equivalent-2-input-gate count by comparison-unit
    replacement; ties broken towards fewer paths (Sec. 4.1). Repeats passes
    until no further reduction. *)

val run : ?options:Engine.options -> Circuit.t -> Engine.stats
(** [run c] is {!Engine.optimize} with the [Gates] objective: it rewrites
    [c] in place and returns the run's statistics. [options] defaults to
    {!Engine.default_options}. *)

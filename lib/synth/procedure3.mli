(** Procedure 3: reduce the number of paths by comparison-unit replacement;
    the gate count is not a secondary objective and may grow (Sec. 4.2). *)

val run : ?options:Engine.options -> Circuit.t -> Engine.stats
(** [run c] is {!Engine.optimize} with the [Paths] objective: it rewrites
    [c] in place and returns the run's statistics. [options] defaults to
    {!Engine.default_options}. *)

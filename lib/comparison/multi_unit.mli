(** Covers by several comparison units (the paper's second "remaining issue",
    Sec. 6; the construction is sketched in Sec. 3.1).

    Any function can be written as an OR of comparison functions by
    partitioning its ON-set into intervals under a shared permutation; when
    the OFF-set has fewer runs, the complemented (NOR) form is used instead.
    All units share one permutation, so every input still reaches the output
    through at most [2 * units] paths. Unlike single comparison units, the
    combined structure is not guaranteed fully robustly testable — which is
    why the paper restricts itself to single units and lists this as future
    work. *)

type cover = {
  specs : Comparison_fn.spec list;
      (** one spec per unit; all share the same permutation and are
          non-complemented — the polarity lives in [complemented] below *)
  complemented : bool;  (** true: the units cover the OFF-set and are NORed *)
}

val find : ?budget:int -> ?max_units:int -> Rng.t -> Truthtable.t -> cover option
(** Smallest run count over sampled permutations (exhaustive for small [n]);
    [None] when the function is constant or needs more than [max_units]
    (default 3) units. A single-unit cover is returned as such, so callers
    usually try {!Comparison_fn.identify} first. *)

val build : ?merge:bool -> n:int -> cover -> Comparison_unit.built
val verify : n:int -> Truthtable.t -> Comparison_unit.built -> bool

(** Comparison-function identification (Definition 1 of the paper).

    A function [f(y_1..y_n)] is a comparison function iff there is a
    permutation [(x_1..x_n)] of its inputs and bounds [L <= U] such that the
    minterms with [f = 1] are exactly those whose decimal value (x_1 = MSB)
    lies in [L..U]. Following the paper's experiments, a function whose
    OFF-set is an interval is also accepted and realised as a complemented
    comparison unit.

    Two identification engines are provided:
    - {!identify_exact}: a complete recursive decomposition. [f] is an
      interval under MSB [x] iff the cofactor pair splits as (interval, empty),
      (empty, interval) or (suffix, prefix) — the last case requiring one
      {e shared} permutation of the remaining variables, searched jointly with
      memoisation.
    - {!identify_sampled}: the paper's method — try a budget of sampled
      permutations and test contiguity directly. Incomplete but cheap;
      exhaustive (hence complete) when [n! <= budget]. *)

type spec = {
  perm : int array;
      (** [perm.(j)] is the original variable (1-based) placed at position
          [j] (0-based, MSB first). *)
  lo : int;
  hi : int;
  complemented : bool;
      (** When true, the OFF-set of the original function is [lo..hi] and the
          unit output must be inverted. *)
}

val pp_spec : Format.formatter -> spec -> unit

val spec_table : int -> spec -> Truthtable.t
(** The function a spec denotes, over [n] variables in original order. *)

val check : Truthtable.t -> spec -> bool
(** Does the spec denote exactly this function? *)

val identify_exact : Truthtable.t -> spec option
(** Complete for constants too: a constant-true function yields the full
    interval, constant-false the complement of the full interval. *)

val identify_sampled : ?budget:int -> Rng.t -> Truthtable.t -> spec option
(** Default budget: 200 permutations, as in the paper's experiments. *)

type engine = Exact | Sampled of int
(** Identification engine selector used by the resynthesis procedures. *)

val identify : engine -> Rng.t -> Truthtable.t -> spec option

val identify_dc :
  ?budget:int -> Rng.t -> care_on:Truthtable.t -> dc:Truthtable.t -> spec option
(** Don't-care-aware identification (the paper's first "remaining issue",
    Sec. 6): find a permutation under which the care ON-set spans an interval
    whose interior contains only ON or don't-care minterms (dually for the
    complemented form). The returned spec's function agrees with the target
    on every care minterm but may differ on don't-cares — the caller must
    justify that those combinations cannot occur. Sampled permutations only
    (default budget 200; exhaustive when [n!] fits the budget). *)

val dc_matches : care_on:Truthtable.t -> dc:Truthtable.t -> spec -> bool
(** Does the spec's function agree with [care_on] outside [dc]? *)

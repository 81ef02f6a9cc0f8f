(** Redundancy addition and removal — the RAMBO_C [1] stand-in baseline.

    The optimizer alternates two moves:
    - {e removal}: tie off stuck-at-untestable lines ({!Redundancy});
    - {e addition}: splice a functionally redundant extra input onto an
      And/Nand (or Or/Nor) gate. A candidate wire (source node, destination
      gate) is filtered by bit-parallel simulation — the destination output
      must never be at its non-controlled value while the new input is
      controlling — and then proved redundant exactly: with the wire added,
      the new pin's stuck-at-non-controlling fault must be untestable.
      Additions are kept only when the removal they unlock shrinks the
      circuit; otherwise they are reverted.

    Like the original, this targets area only, so the path count typically
    grows — the behaviour Table 3 of the paper contrasts against. *)

type options = {
  max_additions : int;  (** accepted-addition budget *)
  max_trials : int;  (** candidate wires proved per addition round *)
  removal_backtracks : int;
      (** PODEM budget inside redundancy removal, and justification budget
          of the merges' equivalence proofs *)
  seed : int64;
}
(** The addition filter simulates 1,024 random patterns and each
    wire-addition proof gets 500 PODEM backtracks. *)

val default_options : options
(** [{ max_additions = 40; max_trials = 400; removal_backtracks = 120;
       seed = 1L }] *)

type stats = {
  additions : int;
  removals : int;
  gates_before : int;
  gates_after : int;
}

val pp_stats : Format.formatter -> stats -> unit

val optimize : ?options:options -> Circuit.t -> stats
(** Mutates the circuit; the result is equivalent to the input. Each merge
    proof is one {!Justify.distinguish} call on a compiled view of the
    circuit that is rebuilt only after a merge has changed it. The merge
    rounds of one call share a memory (DESIGN.md §20): every
    distinguishing vector a proof found, packed in a {!Redundancy.tests}
    store and simulated once per round, and every [Unsat] or [Unknown]
    verdict under its {!Justify.pair_key}. A pair that a kept vector
    separates is not proved (it cannot be equivalent), and a pair whose
    key is stored gets the stored verdict (the search would repeat it), so
    the pairs tried, their order and every merge are those of rounds that
    prove every pair. Every removal call of one [optimize] shares one
    {!Redundancy.tests} store too, so a vector PODEM or SAT found after one
    trial settles its faults in every later classification; removals and
    the result are those of calls that carry nothing.
    Observability (when enabled): span [rar.merge] per node-substitution
    round and one span [rar.trials] around the wire-addition loop, beside
    the removal passes' [redundancy.*] spans; counters [rar.merge_unsat]
    (pair merged), [rar.merge_sat] and [rar.merge_unknown], one per merge
    proof by verdict, and [rar.merge_separated] and [rar.merge_reused],
    one per pair the memory decided without a proof. *)

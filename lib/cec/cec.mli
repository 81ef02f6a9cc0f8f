(** SAT-based combinational equivalence checking (CEC).

    Proves two netlists functionally identical — or produces a concrete
    distinguishing input vector — by building a {e miter}: both circuits are
    Tseitin-encoded into one solver over shared primary-input variables
    (structural hashing collapses common logic), matched outputs are XOR-ed,
    and the disjunction of the XOR literals is asserted. The miter is
    unsatisfiable iff the circuits are equivalent.

    Primary inputs and outputs are matched by name when both circuits carry
    a complete, duplicate-free and identical name set, and positionally
    otherwise (the counts must agree either way); {!Interface_mismatch} is
    raised when no matching exists.

    Soundness guard: a [Sat] answer from the solver is only reported as
    {!Counterexample} after the assignment has been replayed through
    {!Eval.run} on both circuits and confirmed to produce differing outputs
    — a solver or encoder bug therefore cannot fabricate a false
    inequivalence (it raises [Failure] instead). [Equivalent] answers rest
    on the solver's UNSAT proof, which the qcheck harness cross-validates
    against exhaustive simulation (see [test/test_cec.ml]).

    Observability (when {!Obs.enabled}): counters [cec.checks],
    [cec.equivalent], [cec.counterexample], [cec.unknown], [cec.decisions],
    [cec.conflicts], [cec.propagations]; histogram [cec.miter_vars]; span
    [cec.check]. *)

exception Interface_mismatch of string
(** The two circuits cannot be compared: differing input/output counts, or
    irreconcilable names. The message is human-readable. *)

type verdict =
  | Equivalent  (** UNSAT miter: the circuits agree on every input. *)
  | Counterexample of bool array
      (** A distinguishing assignment, indexed like [Circuit.inputs] of the
          {e first} circuit, validated through {!Eval.run} on both. *)
  | Unknown of int
      (** The conflict budget (payload) was exhausted with no verdict. *)

val pp_verdict : Format.formatter -> verdict -> unit

type stats = {
  outputs_checked : int;  (** miter output pairs actually solved *)
  vars : int;  (** solver variables across all miters of this check *)
  clauses : int;  (** problem clauses (learned clauses excluded) *)
  decisions : int;
  conflicts : int;
  propagations : int;
}

val default_budget : int
(** Conflict budget per output-pair miter when [?budget] is omitted
    (100_000 — far above anything the resynthesis miters need). *)

val check : ?budget:int -> ?domains:int -> Circuit.t -> Circuit.t -> verdict
(** [check a b] decides functional equivalence of [a] and [b]. The check is
    split per matched output pair — each pair gets its own miter restricted
    to its transitive fanin cones. With [domains] above 1 (default 1), the
    pairs that survive the structural-hash filter are solved on a pool of
    that many domains ({!Pool.with_pool}), opened for them alone. The
    verdict is identical for every width: the counterexample reported is
    always the one for the lowest-numbered differing output. Neither
    circuit is modified. *)

val check_stats :
  ?budget:int -> ?domains:int -> Circuit.t -> Circuit.t -> verdict * stats
(** Like {!check} but also returns aggregated solver statistics, summed
    across the per-output miters up to and including the first
    counterexample (conflict/decision counts are what the bench harness
    records per circuit). The pool solves every surviving pair and drops
    the results after the first counterexample, so [(verdict, stats)] is
    the same at every width. *)

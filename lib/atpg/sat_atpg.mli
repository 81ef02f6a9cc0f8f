(** SAT-based exact test generation and redundancy proofs for stuck-at
    faults.

    The escalation tier above {!Podem}: where PODEM's bounded search answers
    [Aborted], this module gives an exact verdict by deciding the fault
    miter with the {!Sat} solver. Every fault is decided on a cleared
    solver ({!Cnf.clear}) holding only its {e cone of influence} — the
    fanin cones of the primary outputs the fault site's fanout cone
    reaches:

    - the good copy of every node in that cone;
    - a faulty copy of the fanout cone inside it, whose fanins outside the
      fanout cone read the good copy's literals ({!Cnf.encode_kind} encodes
      both copies, so logic the fault cannot change hashes to shared
      literals);
    - one plain miter clause: some reached output differs;
    - Larrabee's D-chain clauses: a variable [d_v] per faulty-copy node,
      with [d_v → good_v ≠ faulty_v], [d_v → ∨ d_w] over the in-cone
      fanouts [w] of a non-output [v], and the unit clause [d_root] at the
      fault site (the gate of a branch fault).

    The formula is a function of the circuit and the fault alone, so
    {!escalate}, [Redundancy.find_untestable] and the re-proofs inside
    [Redundancy.remove] decide the same formula for the same fault and
    reach the same verdict. A cleared solver searches exactly like a fresh
    one (DESIGN.md §14), so neither the verdict nor the search depends on
    the faults decided before on the same {!t}. A fault whose fanout cone
    reaches no output is [Redundant] without a solver.

    Soundness is asymmetric, mirroring [Cec]: a [Sat] model is decoded into
    an input vector (inputs outside the cone set to 0) and replayed through
    {!Fsim} — a detecting vector is never reported on the solver's word
    alone (a disagreement raises [Failure]) — while [Redundant] rests on
    the UNSAT proof: the D-chain clauses are implied by any test (DESIGN.md
    §14), and the test suite cross-checks the verdicts against exhaustive
    simulation and a reference miter without them.

    Observability (when enabled): counters [atpg.sat_escalations],
    [atpg.sat_redundant] (plus the solver's own [sat.conflicts] and
    [sat.propagations]); span [atpg.sat]. *)

type outcome =
  | Test of bool array
      (** A detecting input vector (indexed like [Circuit.inputs]),
          replay-verified by the fault simulator. *)
  | Redundant  (** Proved undetectable: no input vector exposes the fault. *)
  | Unknown of int
      (** The conflict budget (payload) ran out before a verdict. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** [test] with the vector's bits, [redundant], or [unknown] with the
    exhausted conflict budget. *)

type t
(** A per-circuit escalation context: the circuit's topological order, the
    conflict budget, a fault simulator for replay, one encoding environment
    with its solver, cleared for each fault, and per-node scratch arrays,
    so a fault list allocates the solver's and the encoder's arrays
    once. Single-owner mutable state;
    invalidated if the circuit is mutated after {!create}. *)

val create : ?limits:Limits.t -> Circuit.t -> t
(** Prepare escalation on the (unmodified) circuit. [limits.sat_conflicts]
    becomes the per-fault conflict budget. *)

val run : t -> Fault.t -> outcome
(** Decide one fault on [t]'s cleared solver: the same outcome, vector,
    conflicts and propagations as on a fresh [t]. *)

type escalation = {
  escalated : int;  (** faults submitted *)
  tests : (Fault.t * bool array) list;  (** detecting vectors found *)
  redundant : Fault.t list;  (** proved undetectable *)
  unknown : (Fault.t * int) list;
      (** still undecided, with the exhausted conflict budget *)
}

val escalate : ?limits:Limits.t -> Circuit.t -> Fault.t list -> escalation
(** {!run} every fault on one {!t} (created only when the list is
    non-empty); result lists preserve the input order. *)

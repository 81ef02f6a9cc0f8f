(** Line justification: find a primary-input assignment producing required
    values on internal lines, or prove none exists.

    This is the PODEM search without a fault: decisions on primary inputs,
    objectives from unjustified targets, event-driven three-valued
    implication ({!Imply}, whose values equal a full forward pass). Used
    to prove input combinations of a subcircuit unreachable (controllability
    don't-cares) — the paper's first "remaining issue" (Sec. 6).

    {!create} and {!run} mirror [Podem.create] and [Podem.run]: a run of
    target sets on an unchanged circuit ([Dontcare.prove_unreachable]'s
    minterms, [Pdf_atpg.generate]'s frames and retries) compiles the
    circuit once. {!distinguish} asks whether two lines can differ (or
    agree) on the same compiled circuit, without adding a gate: RAR's
    merge proofs compile once per circuit version. *)

type verdict =
  | Sat of bool array  (** a primary-input vector achieving the targets *)
  | Unsat
  | Unknown  (** backtrack limit exceeded *)

type t
(** A per-circuit search context: the circuit compiled once ({!Compiled.t}),
    its implication kernel ({!Imply.t}) and the backtrack limit.
    Single-owner mutable state; invalidated if the circuit is mutated after
    {!create}. *)

val create : ?backtrack_limit:int -> Circuit.t -> t
(** Compile the (unmodified) circuit for a run of target sets. Default
    backtrack limit: {!Limits.default}.[justify_backtracks]. *)

val run : t -> ?rng:Rng.t -> ?prefer:bool array -> (int * bool) list -> verdict
(** [run t targets] with [targets] a list of (node id, required value). The
    verdict does not depend on the target sets [run] decided before on the
    same [t]. With [rng], backtrace tie-breaks are randomised, so repeated
    calls explore different witnesses; completeness of the [Unsat] verdict
    is unaffected. [prefer] supplies values for primary inputs the search
    left unassigned (default all-false); the two-frame path-delay test
    generator passes the first vector so unconstrained inputs stay stable.
    Observability (when enabled): span [justify.search]. *)

val distinguish : t -> ?rng:Rng.t -> complement:bool -> int -> int -> verdict
(** [distinguish t ~complement a b] searches for an input vector on which
    [a XOR b] is 1 ([a XNOR b] with [complement]): [Unsat] proves the two
    lines equal (complementary with [complement]), and [Unknown] means the
    backtrack limit ran out. The search is, step for step, {!run} on a
    copy of the circuit
    with an XOR (XNOR) gate over [[|a; b|]] targeted to 1: the objective is
    open while either line is X, and its backtrace enters the first X line
    of [a], [b] with the wanted parity of the other line. Same verdict,
    witness (unassigned inputs false) and rng draws; nothing is added to
    the circuit. Observability (when enabled): span [justify.search]. *)

val reachable_exhaustive : Circuit.t -> (int * bool) list -> bool
(** Ground truth by exhaustive simulation (<= 20 inputs); for testing. *)

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
    merge proofs compile once per circuit version. {!pair_key} names
    everything such a search reads, so RAR reuses a verdict on an
    identical cone instead of searching again. *)

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

val pair_key : Circuit.t -> complement:bool -> int -> int -> string
(** [pair_key c ~complement a b] describes everything
    [distinguish t ~complement a b] reads of a view [t] of [c]: the union
    fanin cone of [a] and [b], numbered in first-visit post-order (from
    [a], then from [b], fanins in pin order), with per node its kind and
    either its fanin numbers in pin order (a gate or constant) or its
    position in [Circuit.inputs c] (an input); then the [complement] flag
    and the numbers of [a] and [b]. The search reads no node outside that
    cone and no node id, so two pairs with equal keys, on one circuit or
    two, get the same {!distinguish} verdict from views with the same
    backtrack limit and no rng, and the same witness when both circuits
    have as many inputs (DESIGN.md §20). Compare keys whole: equal hashes
    prove nothing. *)

val reachable_exhaustive : Circuit.t -> (int * bool) list -> bool
(** Ground truth by exhaustive simulation (<= 20 inputs); for testing. *)

(** Controllability don't-cares on a subcircuit's input cut.

    An input combination the surrounding logic can never produce is a
    don't-care for the replacement: the spliced unit may disagree with the
    original function there. Candidates come from cheap bit-parallel
    simulation (combinations never observed); each disagreement actually
    exploited is then {e proved} unreachable with {!Justify}, so replacements
    stay sound. This implements the paper's first "remaining issue" (Sec. 6). *)

val observed : Bytes.t array -> int array -> Truthtable.t
(** [observed batches inputs]: truth table marking every input-cut minterm
    seen in the simulated batches, each a {!Compiled.simulate_into} buffer
    (node [id]'s 64 patterns at byte [8 * id]). *)

val prove_unreachable : Circuit.t -> int array -> int list -> bool
(** [prove_unreachable c inputs minterms]: true iff {e every} listed cut
    minterm is proved unreachable by exhaustive justification search, on
    one {!Justify.t} for all of them, within
    {!Limits.default}[.justify_backtracks] backtracks per minterm.
    [Unknown] (budget) counts as reachable, keeping callers sound. *)

(** Splicing a comparison unit in place of a subcircuit. *)

val splice :
  exact:bool ->
  Circuit.t ->
  Subcircuit.t ->
  Comparison_unit.built ->
  int * int list
(** Import the unit into the circuit (its input [j] wired to
    [subcircuit.inputs.(j)]), retarget the root's fanouts and output
    designations to the unit output, and sweep the dead subcircuit gates.
    Returns the node id now carrying the function, and the sweep's
    boundary ({!Circuit.sweep_report}): the survivors that lost a reader
    to the sweep.

    A unit that is a bare wire to cut input [x] hands [x] to the root's
    readers; a reader that already read [x] has the repeated pin folded
    ([x ∧ x = x]), becoming a Buf or Not when one pin is left. Repeated
    Xor/Xnor pins are kept.

    With [~exact:true] the unit's function is checked exhaustively against
    the subcircuit's extracted function before touching the circuit; a
    mismatch raises [Failure]. A don't-care replacement ([~exact:false])
    differs from that function on proved-unreachable cut combinations, so
    it skips the check. *)

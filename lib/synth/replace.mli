(** Splicing a comparison unit in place of a subcircuit. *)

val splice :
  exact:bool ->
  Circuit.t ->
  Subcircuit.t ->
  Comparison_unit.built ->
  int
(** Import the unit into the circuit (its input [j] wired to
    [subcircuit.inputs.(j)]), retarget the root's fanouts and output
    designations to the unit output, and sweep the dead subcircuit gates.
    Returns the node id now carrying the function.

    With [~exact:true] the unit's function is checked exhaustively against
    the subcircuit's extracted function before touching the circuit; a
    mismatch raises [Failure]. A don't-care replacement ([~exact:false])
    differs from that function on proved-unreachable cut combinations, so
    it skips the check. *)

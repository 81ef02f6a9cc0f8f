(** Splicing a comparison unit in place of a subcircuit. *)

val splice :
  ?verify_local:bool ->
  Circuit.t ->
  Subcircuit.t ->
  Comparison_unit.built ->
  int
(** Import the unit into the circuit (its input [j] wired to
    [subcircuit.inputs.(j)]), retarget the root's fanouts and output
    designations to the unit output, and sweep the dead subcircuit gates.
    Returns the node id now carrying the function.

    With [verify_local] (default true) the unit's function is checked
    exhaustively against the subcircuit's extracted function before touching
    the circuit; a mismatch raises [Failure]. *)

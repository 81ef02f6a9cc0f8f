let implements c (s : Subcircuit.t) (b : Comparison_unit.built) =
  let want = Subcircuit.extract c s in
  let got = Eval.output_table b.Comparison_unit.circuit 0 in
  Truthtable.equal want got

let splice ?(verify_local = true) c (s : Subcircuit.t) (b : Comparison_unit.built) =
  let unit_c = b.Comparison_unit.circuit in
  if Circuit.num_inputs unit_c <> Array.length s.Subcircuit.inputs then
    invalid_arg "Replace.splice: input arity mismatch";
  if verify_local && not (implements c s b) then
    failwith "Replace.splice: unit does not implement the subcircuit function";
  (* Import the unit body. *)
  let remap = Array.make (Circuit.size unit_c) (-1) in
  Array.iteri
    (fun j pi -> remap.(pi) <- s.Subcircuit.inputs.(j))
    (Circuit.inputs unit_c);
  Array.iter
    (fun id ->
      match Circuit.kind unit_c id with
      | Gate.Input -> ()
      | Gate.Const0 -> remap.(id) <- Circuit.add_const c false
      | Gate.Const1 -> remap.(id) <- Circuit.add_const c true
      | k ->
        let fins = Array.map (fun f -> remap.(f)) (Circuit.fanins unit_c id) in
        remap.(id) <- Circuit.add_gate c k fins)
    (Circuit.topo_order unit_c);
  let fresh_out = remap.((Circuit.outputs unit_c).(0)) in
  Circuit.retarget c ~from_:s.Subcircuit.root ~to_:fresh_out;
  ignore (Circuit.sweep c);
  fresh_out

let implements c (s : Subcircuit.t) (b : Comparison_unit.built) =
  let want = Subcircuit.extract c s in
  let got = Eval.output_table b.Comparison_unit.circuit 0 in
  Truthtable.equal want got

(* A unit that is a bare wire to cut input [x] retargets the root's readers
   onto [x], and a reader that already read [x] then repeats it, which
   [Check] rejects on And/Or/Nand/Nor: fold the pin (x ∧ x = x), down to a
   Buf or Not when one pin is left. Repeated Xor/Xnor pins are legal. *)
let fold_repeated_pins c r =
  match Circuit.kind c r with
  | (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) as k ->
    let fins = Circuit.fanins c r in
    let kept = ref [] in
    Array.iter (fun f -> if not (List.mem f !kept) then kept := f :: !kept) fins;
    if List.length !kept < Array.length fins then begin
      let kept = Array.of_list (List.rev !kept) in
      let k =
        if Array.length kept > 1 then k
        else if k = Gate.And || k = Gate.Or then Gate.Buf
        else Gate.Not
      in
      Circuit.replace_node c r k kept
    end
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ()

let splice ~exact c (s : Subcircuit.t) (b : Comparison_unit.built) =
  let unit_c = b.Comparison_unit.circuit in
  if Circuit.num_inputs unit_c <> Array.length s.Subcircuit.inputs then
    invalid_arg "Replace.splice: input arity mismatch";
  if exact && not (implements c s b) then
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
  let readers = Circuit.fanouts c s.Subcircuit.root in
  Circuit.retarget c ~from_:s.Subcircuit.root ~to_:fresh_out;
  List.iter (fold_repeated_pins c) readers;
  (fresh_out, snd (Circuit.sweep_report c))

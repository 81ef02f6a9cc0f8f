type t = {
  circuit : Circuit.t;
  size : int;
  order : int array;
  topo_index : int array;
  levels : int array;
  kinds : Gate.kind array;
  fanins : int array array;
  fanouts : int array array;
  inputs : int array;
  outputs : int array;
  po_flags : Bytes.t;
}

let of_circuit c =
  let size = Circuit.size c in
  let order = Circuit.topo_order c in
  let topo_index = Array.make size (-1) in
  Array.iteri (fun pos id -> topo_index.(id) <- pos) order;
  let kinds = Array.make size Gate.Const0 in
  let fanins = Array.make size [||] in
  let fanouts = Array.make size [||] in
  Circuit.iter_live c (fun id ->
      kinds.(id) <- Circuit.kind c id;
      fanins.(id) <- Array.copy (Circuit.fanins c id);
      fanouts.(id) <- Array.of_list (Circuit.fanouts c id));
  (* Along the order every fanin is levelled before its gate. *)
  let levels = Array.make size (-1) in
  Array.iter
    (fun id ->
      levels.(id) <-
        (match kinds.(id) with
        | Gate.Input | Gate.Const0 | Gate.Const1 -> 0
        | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
        | Gate.Xor | Gate.Xnor ->
          1 + Array.fold_left (fun acc f -> max acc levels.(f)) 0 fanins.(id)))
    order;
  let outputs = Circuit.outputs c in
  let po_flags = Bytes.make size '\000' in
  Array.iter (fun o -> Bytes.set po_flags o '\001') outputs;
  {
    circuit = c;
    size;
    order;
    topo_index;
    levels;
    kinds;
    fanins;
    fanouts;
    inputs = Circuit.inputs c;
    outputs;
    po_flags;
  }

let circuit t = t.circuit
let size t = t.size
let order t = t.order
let topo_index t = t.topo_index
let levels t = t.levels
let kind t id = t.kinds.(id)
let fanins t id = t.fanins.(id)
let fanouts t id = t.fanouts.(id)
let inputs t = t.inputs
let outputs t = t.outputs
let is_po t id = Bytes.get t.po_flags id <> '\000'

(* Node words live in a byte buffer, 8 bytes per node id, read and written
   only through [Bytes.get_int64_ne] and [set_int64_ne], so no word is
   boxed. *)
let[@inline] word v id = Bytes.get_int64_ne v (8 * id)

(* Write gate [id]'s word, computed from its fanins' words in [v]. *)
let eval_gate t v id =
  let fins = t.fanins.(id) in
  let n = Array.length fins in
  let kind = t.kinds.(id) in
  let acc = ref 0L in
  (match kind with
  | Gate.Input | Gate.Const0 -> ()
  | Gate.Const1 -> acc := -1L
  | Gate.Buf | Gate.Not -> acc := word v fins.(0)
  | Gate.And | Gate.Nand ->
    acc := -1L;
    for i = 0 to n - 1 do
      acc := Int64.logand !acc (word v fins.(i))
    done
  | Gate.Or | Gate.Nor ->
    for i = 0 to n - 1 do
      acc := Int64.logor !acc (word v fins.(i))
    done
  | Gate.Xor | Gate.Xnor ->
    for i = 0 to n - 1 do
      acc := Int64.logxor !acc (word v fins.(i))
    done);
  if Gate.inverting kind then acc := Int64.lognot !acc;
  Bytes.set_int64_ne v (8 * id) !acc

let simulate_into t pi_words v =
  if Array.length pi_words <> Array.length t.inputs then
    invalid_arg "Compiled.simulate_into: input word count mismatch";
  if Bytes.length v < 8 * t.size then invalid_arg "Compiled.simulate_into: buffer too small";
  Array.iteri (fun i pi -> Bytes.set_int64_ne v (8 * pi) pi_words.(i)) t.inputs;
  Array.iter
    (fun id -> match t.kinds.(id) with Gate.Input -> () | _ -> eval_gate t v id)
    t.order

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

let eval_node t values id =
  let fins = t.fanins.(id) in
  let n = Array.length fins in
  match t.kinds.(id) with
  | Gate.Input -> values.(id)
  | Gate.Const0 -> 0L
  | Gate.Const1 -> -1L
  | Gate.Buf -> values.(fins.(0))
  | Gate.Not -> Int64.lognot values.(fins.(0))
  | Gate.And ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logand !acc values.(fins.(i))
    done;
    !acc
  | Gate.Nand ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logand !acc values.(fins.(i))
    done;
    Int64.lognot !acc
  | Gate.Or ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logor !acc values.(fins.(i))
    done;
    !acc
  | Gate.Nor ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logor !acc values.(fins.(i))
    done;
    Int64.lognot !acc
  | Gate.Xor ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logxor !acc values.(fins.(i))
    done;
    !acc
  | Gate.Xnor ->
    let acc = ref values.(fins.(0)) in
    for i = 1 to n - 1 do
      acc := Int64.logxor !acc values.(fins.(i))
    done;
    Int64.lognot !acc

let simulate_into t pi_words values =
  if Array.length pi_words <> Array.length t.inputs then
    invalid_arg "Compiled.simulate: input word count mismatch";
  Array.iteri (fun i pi -> values.(pi) <- pi_words.(i)) t.inputs;
  Array.iter
    (fun id ->
      match t.kinds.(id) with
      | Gate.Input -> ()
      | _ -> values.(id) <- eval_node t values id)
    t.order

let simulate t pi_words =
  let values = Array.make t.size 0L in
  simulate_into t pi_words values;
  values

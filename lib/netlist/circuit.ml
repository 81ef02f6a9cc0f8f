type node = {
  mutable kind : Gate.kind;
  mutable fanins : int array;
  mutable node_name : string option;
  mutable alive : bool;
}

type t = {
  mutable circuit_name : string;
  mutable nodes : node array;
  mutable len : int;
  mutable pis : int list; (* reverse declaration order *)
  mutable pos : (int * string option) list; (* reverse declaration order *)
  mutable index : index option;
}

(* Derived lookups, built together on first use and dropped by every
   structural mutation: the readers of each node, and which nodes a
   primary output designates. *)
and index = {
  fanout : int list array;
  output : Bytes.t;
}

let dead_node = { kind = Gate.Const0; fanins = [||]; node_name = None; alive = false }

let create ?(name = "circuit") () =
  {
    circuit_name = name;
    nodes = Array.make 64 dead_node;
    len = 0;
    pis = [];
    pos = [];
    index = None;
  }

let name c = c.circuit_name
let set_name c s = c.circuit_name <- s
let size c = c.len

let node c id =
  if id < 0 || id >= c.len then invalid_arg "Circuit: node id out of range";
  let n = c.nodes.(id) in
  if not n.alive then invalid_arg (Printf.sprintf "Circuit: node %d is dead" id);
  n

let invalidate c = c.index <- None

let grow c =
  if c.len = Array.length c.nodes then begin
    let bigger = Array.make (max 64 (2 * c.len)) dead_node in
    Array.blit c.nodes 0 bigger 0 c.len;
    c.nodes <- bigger
  end

let alloc c n =
  grow c;
  c.nodes.(c.len) <- n;
  c.len <- c.len + 1;
  invalidate c;
  c.len - 1

let add_input ?name c =
  let id = alloc c { kind = Gate.Input; fanins = [||]; node_name = name; alive = true } in
  c.pis <- id :: c.pis;
  id

let add_const ?name c value =
  let kind = if value then Gate.Const1 else Gate.Const0 in
  alloc c { kind; fanins = [||]; node_name = name; alive = true }

let check_fanins c fanins =
  Array.iter
    (fun f ->
      if f < 0 || f >= c.len || not c.nodes.(f).alive then
        invalid_arg (Printf.sprintf "Circuit.add_gate: bad fanin %d" f))
    fanins

let check_arity kind n =
  if n < Gate.min_arity kind then
    invalid_arg
      (Printf.sprintf "Circuit: %s needs >= %d fanins" (Gate.to_string kind)
         (Gate.min_arity kind));
  match Gate.max_arity kind with
  | Some m when n > m ->
    invalid_arg (Printf.sprintf "Circuit: %s takes <= %d fanins" (Gate.to_string kind) m)
  | Some _ | None -> ()

let add_gate ?name c kind fanins =
  (match kind with
  | Gate.Input -> invalid_arg "Circuit.add_gate: use add_input"
  | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.And | Gate.Or
  | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor -> ());
  check_arity kind (Array.length fanins);
  check_fanins c fanins;
  alloc c { kind; fanins = Array.copy fanins; node_name = name; alive = true }

let mark_output ?name c id =
  ignore (node c id);
  c.pos <- (id, name) :: c.pos;
  invalidate c

let is_alive c id = id >= 0 && id < c.len && c.nodes.(id).alive
let kind c id = (node c id).kind
let fanins c id = (node c id).fanins
let fanin_count c id = Array.length (node c id).fanins
let node_name c id = (node c id).node_name

let inputs c =
  c.pis |> List.filter (fun id -> c.nodes.(id).alive) |> List.rev |> Array.of_list

let outputs c = c.pos |> List.rev_map fst |> Array.of_list

let output_names c =
  c.pos
  |> List.rev_map (fun (id, n) ->
         match n with
         | Some s -> s
         | None -> (
           match c.nodes.(id).node_name with
           | Some s -> s
           | None -> Printf.sprintf "po%d" id))
  |> Array.of_list

let num_inputs c = Array.length (inputs c)
let num_outputs c = List.length c.pos

let num_live_nodes c =
  let k = ref 0 in
  for i = 0 to c.len - 1 do
    if c.nodes.(i).alive then incr k
  done;
  !k

let iter_live c f =
  for i = 0 to c.len - 1 do
    if c.nodes.(i).alive then f i
  done

let num_gates c =
  let k = ref 0 in
  iter_live c (fun i ->
      match c.nodes.(i).kind with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor -> incr k);
  !k

let two_input_gate_count c =
  let k = ref 0 in
  iter_live c (fun i ->
      let n = c.nodes.(i) in
      k := !k + Gate.two_input_equivalents n.kind (Array.length n.fanins));
  !k

(* Published whole, so domains that read a circuit concurrently see
   either no index or a complete one. *)
let build_index c =
  let fanout = Array.make c.len [] in
  for i = c.len - 1 downto 0 do
    let n = c.nodes.(i) in
    if n.alive then Array.iter (fun f -> fanout.(f) <- i :: fanout.(f)) n.fanins
  done;
  let output = Bytes.make c.len '\000' in
  List.iter (fun (o, _) -> Bytes.set output o '\001') c.pos;
  let ix = { fanout; output } in
  c.index <- Some ix;
  ix

let index c = match c.index with Some ix -> ix | None -> build_index c
let fanout_index c = (index c).fanout

let fanouts c id =
  ignore (node c id);
  (fanout_index c).(id)

let fanout_degree c id = List.length (fanouts c id)

let is_output c id = id >= 0 && id < c.len && Bytes.get (index c).output id <> '\000'

let topo_order c =
  let n = c.len in
  let state = Bytes.make n '\000' in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let order = Array.make (num_live_nodes c) (-1) in
  let next = ref 0 in
  let rec visit id =
    match Bytes.get state id with
    | '\002' -> ()
    | '\001' -> failwith "Circuit.topo_order: combinational cycle"
    | _ ->
      Bytes.set state id '\001';
      Array.iter visit c.nodes.(id).fanins;
      Bytes.set state id '\002';
      order.(!next) <- id;
      incr next
  in
  iter_live c visit;
  order

let set_kind c id k =
  let n = node c id in
  check_arity k (Array.length n.fanins);
  n.kind <- k

let set_fanins c id fanins =
  let n = node c id in
  check_arity n.kind (Array.length fanins);
  check_fanins c fanins;
  n.fanins <- Array.copy fanins;
  invalidate c

let replace_node c id k fanins =
  let n = node c id in
  (match k with
  | Gate.Input -> invalid_arg "Circuit.replace_node: cannot become an Input"
  | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.And | Gate.Or
  | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor -> ());
  check_arity k (Array.length fanins);
  check_fanins c fanins;
  n.kind <- k;
  n.fanins <- Array.copy fanins;
  invalidate c

let retarget c ~from_ ~to_ =
  ignore (node c from_);
  ignore (node c to_);
  let readers = (fanout_index c).(from_) in
  List.iter
    (fun g ->
      let n = c.nodes.(g) in
      Array.iteri (fun j f -> if f = from_ then n.fanins.(j) <- to_) n.fanins)
    readers;
  c.pos <-
    List.map (fun (o, nm) -> if o = from_ then (to_, nm) else (o, nm)) c.pos;
  invalidate c

let delete c id =
  ignore (node c id);
  if is_output c id then invalid_arg "Circuit.delete: node is a primary output";
  if fanouts c id <> [] then invalid_arg "Circuit.delete: node still has fanouts";
  c.nodes.(id) <- dead_node;
  invalidate c

let sweep c =
  let reachable = Bytes.make c.len '\000' in
  let rec mark id =
    if Bytes.get reachable id = '\000' then begin
      Bytes.set reachable id '\001';
      Array.iter mark c.nodes.(id).fanins
    end
  in
  List.iter (fun (o, _) -> mark o) c.pos;
  let removed = ref 0 in
  for i = 0 to c.len - 1 do
    let n = c.nodes.(i) in
    if n.alive && Bytes.get reachable i = '\000' && n.kind <> Gate.Input then begin
      c.nodes.(i) <- dead_node;
      incr removed
    end
  done;
  if !removed > 0 then invalidate c;
  !removed

let copy c =
  {
    circuit_name = c.circuit_name;
    nodes =
      Array.map
        (fun n ->
          if n.alive then { n with fanins = Array.copy n.fanins } else dead_node)
        c.nodes;
    len = c.len;
    pis = c.pis;
    pos = c.pos;
    index = None;
  }

let overwrite c ~with_ =
  let src = copy with_ in
  c.circuit_name <- src.circuit_name;
  c.nodes <- src.nodes;
  c.len <- src.len;
  c.pis <- src.pis;
  c.pos <- src.pos;
  c.index <- None

let compact c =
  let order = topo_order c in
  let remap = Array.make c.len (-1) in
  let fresh = create ~name:c.circuit_name () in
  (* Keep primary-input declaration order stable. *)
  Array.iter
    (fun id ->
      let n = c.nodes.(id) in
      if n.kind = Gate.Input then remap.(id) <- add_input ?name:n.node_name fresh)
    (inputs c);
  Array.iter
    (fun id ->
      let n = c.nodes.(id) in
      match n.kind with
      | Gate.Input -> ()
      | Gate.Const0 -> remap.(id) <- add_const ?name:n.node_name fresh false
      | Gate.Const1 -> remap.(id) <- add_const ?name:n.node_name fresh true
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        let fanins = Array.map (fun f -> remap.(f)) n.fanins in
        remap.(id) <- add_gate ?name:n.node_name fresh n.kind fanins)
    order;
  List.iter
    (fun (o, nm) -> mark_output ?name:nm fresh remap.(o))
    (List.rev c.pos);
  (fresh, remap)

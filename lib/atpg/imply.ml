(* A node's value is one byte holding both machines in dual rail: bit 0 "the
   good value may be 0", bit 1 "may be 1", bits 2 and 3 the same for the
   faulty value. So F = 01, T = 10 and X = 11 on each machine's pair, and
   bitwise operations evaluate both machines at once (DESIGN.md §18). *)
let zeros = 0b0101 (* the may-be-0 rails of both machines *)
let ones = 0b1010
let all_x = 0b1111
let packed_f = 0b0101
let packed_t = 0b1010

(* Exchange each machine's rails: logical NOT of both machines. *)
let swap b = ((b lsr 1) land zeros) lor ((b lsl 1) land ones)

(* Both machines of [a XOR b]: 0 is possible from equal values, 1 from
   different ones. *)
let xor2 a b =
  let a0 = a land zeros and a1 = (a lsr 1) land zeros in
  let b0 = b land zeros and b1 = (b lsr 1) land zeros in
  (a0 land b0) lor (a1 land b1) lor (((a0 land b1) lor (a1 land b0)) lsl 1)

let pack = function Tv.F -> packed_f | Tv.T -> packed_t | Tv.X -> all_x
let rails = [| Tv.X; Tv.F; Tv.T; Tv.X |] (* one machine's rails; 00 never occurs *)

type t = {
  kinds : Gate.kind array;
  fanins : int array array;
  fanouts : int array array;
  order : int array;
  topo_index : int array;
  values : Bytes.t; (* one packed byte per node *)
  settled : Bytes.t; (* the fault-free state with every input X *)
  queue : Level_queue.t;
  cone : int array; (* the first [cone_size] slots: the cone in order *)
  mutable cone_size : int;
  in_cone : int array; (* [stamp] marks the current cone *)
  mutable stamp : int;
  mutable stem : int; (* node whose faulty rails are stuck; -1 if none *)
  mutable fault_gate : int; (* gate with the faulted pin; -1 if none *)
  mutable fault_pin : int;
  mutable stuck : int; (* the stuck value's faulty rails (bits 2 and 3) *)
}

let byte t id = Char.code (Bytes.get t.values id)

(* Both machines of node [id] from its fanins' current bytes; gate
   [fault_gate] reads the stuck value's faulty rails on [fault_pin], and
   the faulted stem's faulty rails are the stuck value. *)
let eval t id =
  let fins = Array.unsafe_get t.fanins id in
  let fp = if id = t.fault_gate then t.fault_pin else -1 in
  let v =
    match Array.unsafe_get t.kinds id with
    | Gate.Input ->
      let g = byte t id land 0b11 in
      g lor (g lsl 2)
    | Gate.Const0 -> packed_f
    | Gate.Const1 -> packed_t
    | (Gate.Xor | Gate.Xnor) as kind ->
      let acc = ref packed_f in
      for pin = 0 to Array.length fins - 1 do
        let b = byte t (Array.unsafe_get fins pin) in
        acc := xor2 !acc (if pin = fp then (b land 0b11) lor t.stuck else b)
      done;
      (match kind with
      | Gate.Xor -> !acc
      | _ -> swap !acc)
    | (Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
      (* AND: 1 needs every fanin's 1-rail, 0 needs some fanin's 0-rail;
         OR is the dual. *)
      let every = ref all_x and some = ref 0 in
      for pin = 0 to Array.length fins - 1 do
        let b = byte t (Array.unsafe_get fins pin) in
        let b = if pin = fp then (b land 0b11) lor t.stuck else b in
        every := !every land b;
        some := !some lor b
      done;
      let and_ = (!every land ones) lor (!some land zeros)
      and or_ = (!some land ones) lor (!every land zeros) in
      (match kind with
      | Gate.Buf | Gate.And -> and_
      | Gate.Not | Gate.Nand -> swap and_
      | Gate.Or -> or_
      | _ -> swap or_)
  in
  if id = t.stem then (v land 0b11) lor t.stuck else v

let push_fanouts t id =
  let fanouts = Array.unsafe_get t.fanouts id in
  for i = 0 to Array.length fanouts - 1 do
    Level_queue.push t.queue (Array.unsafe_get fanouts i)
  done

(* Levels pop in nondecreasing order and a gate's fanouts sit on higher
   levels, so each gate is evaluated once, after all of its changed
   fanins. *)
let drain t =
  let id = ref (Level_queue.pop t.queue) in
  while !id >= 0 do
    let v = eval t !id in
    if v <> byte t !id then begin
      Bytes.unsafe_set t.values !id (Char.unsafe_chr v);
      push_fanouts t !id
    end;
    id := Level_queue.pop t.queue
  done

let create cmp =
  let n = Compiled.size cmp in
  let order = Compiled.order cmp in
  let t =
    {
      kinds = Array.init n (Compiled.kind cmp);
      fanins = Array.init n (Compiled.fanins cmp);
      fanouts = Array.init n (Compiled.fanouts cmp);
      order;
      topo_index = Compiled.topo_index cmp;
      values = Bytes.make n (Char.chr all_x);
      settled = Bytes.create n;
      queue = Level_queue.create (Compiled.levels cmp);
      cone = Array.make n 0;
      cone_size = 0;
      in_cone = Array.make n 0;
      stamp = 0;
      stem = -1;
      fault_gate = -1;
      fault_pin = -1;
      stuck = 0;
    }
  in
  Array.iter (fun id -> Bytes.set t.values id (Char.chr (eval t id))) order;
  Bytes.blit t.values 0 t.settled 0 n;
  t

(* The fanout cone of [site] into [cone], in topological order: mark it
   breadth-first with a fresh stamp (the buffer doubles as the work list),
   then collect the marks from [site]'s position on, where every cone node
   sits, stopping at the last one. *)
let collect_cone t site =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.in_cone.(site) <- stamp;
  t.cone.(0) <- site;
  let found = ref 1 and next = ref 0 in
  while !next < !found do
    let fanouts = t.fanouts.(t.cone.(!next)) in
    incr next;
    for i = 0 to Array.length fanouts - 1 do
      let g = fanouts.(i) in
      if t.in_cone.(g) <> stamp then begin
        t.in_cone.(g) <- stamp;
        t.cone.(!found) <- g;
        incr found
      end
    done
  done;
  let k = ref 0 and pos = ref t.topo_index.(site) in
  while !k < !found do
    let id = t.order.(!pos) in
    if t.in_cone.(id) = stamp then begin
      t.cone.(!k) <- id;
      incr k
    end;
    incr pos
  done;
  t.cone_size <- !found

let reset ?fault t =
  Bytes.blit t.settled 0 t.values 0 (Bytes.length t.values);
  t.cone_size <- 0;
  t.stem <- -1;
  t.fault_gate <- -1;
  t.fault_pin <- -1;
  match fault with
  | None -> ()
  | Some { Fault.site; stuck } ->
    let node =
      match site with
      | Fault.Stem u ->
        t.stem <- u;
        u
      | Fault.Branch (g, pin) ->
        t.fault_gate <- g;
        t.fault_pin <- pin;
        g
    in
    t.stuck <- (if stuck then packed_t else packed_f) land 0b1100;
    (* A dead site has no cone and no effect on any live node. *)
    if t.topo_index.(node) >= 0 then begin
      collect_cone t node;
      Level_queue.push t.queue node;
      drain t
    end

let assign t pi v =
  let v = pack v in
  let v = if pi = t.stem then (v land 0b11) lor t.stuck else v in
  if v <> byte t pi then begin
    Bytes.set t.values pi (Char.chr v);
    push_fanouts t pi;
    drain t
  end

let good t id = rails.(byte t id land 0b11)
let faulty t id = rails.(byte t id lsr 2)

(* Good and faulty known and different: the rail pairs are 01 and 10. *)
let is_d b = (b lxor (b lsr 2)) land 0b11 = 0b11
let d t id = is_d (byte t id)

let composite_x t id =
  let b = byte t id in
  b land 0b11 = 0b11 || b land 0b1100 = 0b1100

let pin_d t g pin =
  let b = byte t t.fanins.(g).(pin) in
  is_d (if g = t.fault_gate && pin = t.fault_pin then (b land 0b11) lor t.stuck else b)

let cone t = t.cone
let cone_size t = t.cone_size

module Test_hooks = struct
  let set t id ~good ~faulty =
    Bytes.set t.values id (Char.chr ((pack good land 0b11) lor (pack faulty land 0b1100)))

  let eval t id =
    let v = eval t id in
    (rails.(v land 0b11), rails.(v lsr 2))
end

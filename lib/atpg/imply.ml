type t = {
  cmp : Compiled.t;
  good : Tv.v array;
  faulty : Bytes.t; (* one byte per node: [outside], or a cone node's value *)
  cone : int array;
  stuck : Tv.v;
  stem : int; (* node forced to [stuck]; -1 for branch faults and none *)
  fault_gate : int; (* gate with the faulted pin; -1 for stem faults and none *)
  fault_pin : int;
  pending : Bytes.t; (* gates already in [heap] *)
  heap : Int_heap.t; (* gates to re-evaluate, by topological position *)
}

(* A byte of [faulty]: [outside] the cone, else [code] of the faulty value. *)
let outside = '\000'
let code = function Tv.F -> '\001' | Tv.T -> '\002' | Tv.X -> '\003'
let good t id = t.good.(id)

let faulty t id =
  match Bytes.get t.faulty id with
  | '\000' -> t.good.(id)
  | '\001' -> Tv.F
  | '\002' -> Tv.T
  | _ -> Tv.X

let cone t = t.cone

(* The value gate [id] reads on [pin] from fanin [f], in the good machine or
   ([fm]) the faulty one. *)
let read t fm id pin f =
  if not fm then t.good.(f)
  else if id = t.fault_gate && pin = t.fault_pin then t.stuck
  else faulty t f

let pin_faulty t g pin = read t true g pin (Compiled.fanins t.cmp g).(pin)

let fold_pins t fm id fins op init =
  let acc = ref init in
  for pin = 0 to Array.length fins - 1 do
    acc := op !acc (read t fm id pin fins.(pin))
  done;
  !acc

(* Three-valued evaluation of node [id] from its fanins' current values. *)
let eval t fm id =
  let fins = Compiled.fanins t.cmp id in
  match Compiled.kind t.cmp id with
  | Gate.Input -> t.good.(id)
  | Gate.Const0 -> Tv.F
  | Gate.Const1 -> Tv.T
  | Gate.Buf -> read t fm id 0 fins.(0)
  | Gate.Not -> Tv.lnot (read t fm id 0 fins.(0))
  | Gate.And -> fold_pins t fm id fins Tv.land_ Tv.T
  | Gate.Nand -> Tv.lnot (fold_pins t fm id fins Tv.land_ Tv.T)
  | Gate.Or -> fold_pins t fm id fins Tv.lor_ Tv.F
  | Gate.Nor -> Tv.lnot (fold_pins t fm id fins Tv.lor_ Tv.F)
  | Gate.Xor -> fold_pins t fm id fins Tv.lxor_ Tv.F
  | Gate.Xnor -> Tv.lnot (fold_pins t fm id fins Tv.lxor_ Tv.F)

let eval_faulty t id = if id = t.stem then t.stuck else eval t true id

let create ?fault cmp =
  let n = Compiled.size cmp in
  let stuck, stem, fault_gate, fault_pin =
    match fault with
    | None -> (Tv.X, -1, -1, -1)
    | Some { Fault.site = Fault.Stem u; stuck } -> (Tv.of_bool stuck, u, -1, -1)
    | Some { Fault.site = Fault.Branch (g, pin); stuck } ->
      (Tv.of_bool stuck, -1, g, pin)
  in
  let faulty = Bytes.make n outside in
  let rec mark id =
    if Bytes.get faulty id = outside then begin
      Bytes.set faulty id (code Tv.X);
      Array.iter mark (Compiled.fanouts cmp id)
    end
  in
  if stem >= 0 then mark stem;
  if fault_gate >= 0 then mark fault_gate;
  let order = Compiled.order cmp in
  let cone =
    Array.of_list
      (List.filter (fun id -> Bytes.get faulty id <> outside) (Array.to_list order))
  in
  let t =
    {
      cmp;
      good = Array.make n Tv.X;
      faulty;
      cone;
      stuck;
      stem;
      fault_gate;
      fault_pin;
      pending = Bytes.make n '\000';
      heap = Int_heap.create ();
    }
  in
  Array.iter (fun id -> t.good.(id) <- eval t false id) order;
  Array.iter (fun id -> Bytes.set t.faulty id (code (eval_faulty t id))) cone;
  t

let schedule_fanouts t id =
  let fanouts = Compiled.fanouts t.cmp id in
  for i = 0 to Array.length fanouts - 1 do
    let g = fanouts.(i) in
    if Bytes.get t.pending g = '\000' then begin
      Bytes.set t.pending g '\001';
      Int_heap.push t.heap (Compiled.topo_index t.cmp).(g)
    end
  done

(* Positions pop in increasing order and a gate's fanouts sit after it, so
   each gate is evaluated once, after all of its changed fanins. *)
let assign t pi v =
  if not (Tv.equal t.good.(pi) v) then begin
    t.good.(pi) <- v;
    schedule_fanouts t pi;
    let order = Compiled.order t.cmp in
    while not (Int_heap.is_empty t.heap) do
      let id = order.(Int_heap.pop t.heap) in
      Bytes.set t.pending id '\000';
      let g = eval t false id in
      let changed = not (Tv.equal g t.good.(id)) in
      if changed then t.good.(id) <- g;
      let changed =
        let old = Bytes.get t.faulty id in
        if old = outside then changed
        else begin
          let f = code (eval_faulty t id) in
          if f = old then changed
          else begin
            Bytes.set t.faulty id f;
            true
          end
        end
      in
      if changed then schedule_fanouts t id
    done
  end

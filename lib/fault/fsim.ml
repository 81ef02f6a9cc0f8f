type t = {
  cmp : Compiled.t;
  good : int64 array;
  fval : int64 array;
  touched : Bytes.t;
  mutable touched_list : int list;
  queue : Level_queue.t; (* gates to re-evaluate *)
  mutable loaded : bool;
}

let create cmp =
  let n = Compiled.size cmp in
  {
    cmp;
    good = Array.make n 0L;
    fval = Array.make n 0L;
    touched = Bytes.make n '\000';
    touched_list = [];
    queue = Level_queue.create (Compiled.levels cmp);
    loaded = false;
  }

let loads_c = Obs.Counter.make ~help:"fault-free batch simulations" "fsim.loads"

let load_patterns st pi_words =
  Obs.Counter.incr loads_c;
  Compiled.simulate_into st.cmp pi_words st.good;
  st.loaded <- true

let value st id = if Bytes.get st.touched id = '\001' then st.fval.(id) else st.good.(id)

let push_fanouts st id =
  let fanouts = Compiled.fanouts st.cmp id in
  for i = 0 to Array.length fanouts - 1 do
    Level_queue.push st.queue fanouts.(i)
  done

let set_value st id v =
  if Bytes.get st.touched id = '\000' then begin
    Bytes.set st.touched id '\001';
    st.touched_list <- id :: st.touched_list
  end;
  st.fval.(id) <- v

(* Evaluate gate [id] from current (possibly faulty) fanin values, applying a
   branch-pin override when [id] is the faulted gate. *)
let eval_gate st ~fault_gate ~fault_pin ~forced id =
  let fins = Compiled.fanins st.cmp id in
  let n = Array.length fins in
  let pin_value i = if id = fault_gate && i = fault_pin then forced else value st fins.(i) in
  let kind = Compiled.kind st.cmp id in
  match kind with
  | Gate.Input -> value st id
  | Gate.Const0 -> 0L
  | Gate.Const1 -> -1L
  | Gate.Buf -> pin_value 0
  | Gate.Not -> Int64.lognot (pin_value 0)
  | Gate.And | Gate.Nand ->
    let acc = ref (-1L) in
    for i = 0 to n - 1 do
      acc := Int64.logand !acc (pin_value i)
    done;
    if kind = Gate.Nand then Int64.lognot !acc else !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref 0L in
    for i = 0 to n - 1 do
      acc := Int64.logor !acc (pin_value i)
    done;
    if kind = Gate.Nor then Int64.lognot !acc else !acc
  | Gate.Xor | Gate.Xnor ->
    let acc = ref 0L in
    for i = 0 to n - 1 do
      acc := Int64.logxor !acc (pin_value i)
    done;
    if kind = Gate.Xnor then Int64.lognot !acc else !acc

let reset st =
  List.iter (fun id -> Bytes.set st.touched id '\000') st.touched_list;
  st.touched_list <- []

let detect st (f : Fault.t) =
  if not st.loaded then invalid_arg "Fsim.detect: no patterns loaded";
  let forced = if f.Fault.stuck then -1L else 0L in
  let fault_gate, fault_pin =
    match f.Fault.site with Fault.Branch (g, pin) -> (g, pin) | Fault.Stem _ -> (-1, -1)
  in
  (match f.Fault.site with
  | Fault.Stem u ->
    if forced <> st.good.(u) then begin
      set_value st u forced;
      push_fanouts st u
    end
  | Fault.Branch (g, _) -> Level_queue.push st.queue g);
  (* Levels pop in nondecreasing order and a gate's fanouts sit on higher
     levels, so each gate is evaluated once, after its changed fanins. *)
  let id = ref (Level_queue.pop st.queue) in
  while !id >= 0 do
    let v = eval_gate st ~fault_gate ~fault_pin ~forced !id in
    if v <> value st !id then begin
      set_value st !id v;
      push_fanouts st !id
    end;
    id := Level_queue.pop st.queue
  done;
  let det = ref 0L in
  List.iter
    (fun id ->
      if Compiled.is_po st.cmp id then
        det := Int64.logor !det (Int64.logxor st.fval.(id) st.good.(id)))
    st.touched_list;
  reset st;
  !det

let detect_single st f vector =
  let words = Array.map (fun b -> if b then 1L else 0L) vector in
  load_patterns st words;
  Int64.logand (detect st f) 1L <> 0L

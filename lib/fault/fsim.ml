(* [good] holds the fault-free word of every node and [words] the current
   one, 8 bytes per node id: the fault-free word, or the faulty one for the
   nodes on the touched stack, which [detect] restores before it returns.
   One slot of [words] past the last node holds the stuck word of the
   current fault, read by the faulted pin. Words are only read and written
   through [Bytes.get_int64_ne] and [set_int64_ne] and never passed to a
   function that is not inlined, so none is boxed: loading a batch
   allocates nothing, and [detect] only the box of a nonzero mask. *)
type t = {
  cmp : Compiled.t;
  good : Bytes.t;
  words : Bytes.t;
  touched : Bytes.t;
  stack : int array; (* the touched node ids, [n_touched] of them *)
  mutable n_touched : int;
  queue : Level_queue.t; (* gates to re-evaluate *)
  mutable loaded : bool;
}

let create cmp =
  let n = Compiled.size cmp in
  {
    cmp;
    good = Bytes.make (8 * n) '\000';
    words = Bytes.make (8 * (n + 1)) '\000';
    touched = Bytes.make n '\000';
    stack = Array.make n 0;
    n_touched = 0;
    queue = Level_queue.create (Compiled.levels cmp);
    loaded = false;
  }

let loads_c = Obs.Counter.make ~help:"fault-free batch simulations" "fsim.loads"

let load_patterns st pi_words =
  Obs.Counter.incr loads_c;
  Compiled.simulate_into st.cmp pi_words st.good;
  Bytes.blit st.good 0 st.words 0 (Bytes.length st.good);
  st.loaded <- true

let word st id = Bytes.get_int64_ne st.words (8 * id)

(* Node [id] now holds a faulty word: push it on the touched stack once, and
   queue its fanouts. *)
let touch st id =
  if Bytes.unsafe_get st.touched id = '\000' then begin
    Bytes.unsafe_set st.touched id '\001';
    st.stack.(st.n_touched) <- id;
    st.n_touched <- st.n_touched + 1
  end;
  let fanouts = Compiled.fanouts st.cmp id in
  for i = 0 to Array.length fanouts - 1 do
    Level_queue.push st.queue fanouts.(i)
  done

(* The slot pin [i] of gate [id] reads: [stuck] on the faulted branch
   ([fault_gate] is -1 for a stem fault), else the fanin's. *)
let[@inline] src ~fault_gate ~fault_pin ~stuck (id : int) (fins : int array) i =
  if id = fault_gate && i = fault_pin then stuck else fins.(i)

(* Re-evaluate gate [id] from its fanins' current words and store the result
   when it changed. *)
let update st ~fault_gate ~fault_pin ~stuck id =
  let fins = Compiled.fanins st.cmp id in
  let n = Array.length fins in
  let kind = Compiled.kind st.cmp id in
  let acc = ref 0L in
  (match kind with
  | Gate.Input -> acc := word st id
  | Gate.Const0 -> ()
  | Gate.Const1 -> acc := -1L
  | Gate.Buf | Gate.Not -> acc := word st (src ~fault_gate ~fault_pin ~stuck id fins 0)
  | Gate.And | Gate.Nand ->
    acc := -1L;
    for i = 0 to n - 1 do
      acc := Int64.logand !acc (word st (src ~fault_gate ~fault_pin ~stuck id fins i))
    done
  | Gate.Or | Gate.Nor ->
    for i = 0 to n - 1 do
      acc := Int64.logor !acc (word st (src ~fault_gate ~fault_pin ~stuck id fins i))
    done
  | Gate.Xor | Gate.Xnor ->
    for i = 0 to n - 1 do
      acc := Int64.logxor !acc (word st (src ~fault_gate ~fault_pin ~stuck id fins i))
    done);
  if Gate.inverting kind then acc := Int64.lognot !acc;
  if !acc <> word st id then begin
    Bytes.set_int64_ne st.words (8 * id) !acc;
    touch st id
  end

let detect st (f : Fault.t) =
  if not st.loaded then invalid_arg "Fsim.detect: no patterns loaded";
  let stuck = Array.length st.stack in
  Bytes.set_int64_ne st.words (8 * stuck) (if f.Fault.stuck then -1L else 0L);
  let fault_gate = match f.Fault.site with Fault.Branch (g, _) -> g | Fault.Stem _ -> -1 in
  let fault_pin = match f.Fault.site with Fault.Branch (_, p) -> p | Fault.Stem _ -> -1 in
  (match f.Fault.site with
  | Fault.Stem u ->
    if word st stuck <> word st u then begin
      Bytes.set_int64_ne st.words (8 * u) (word st stuck);
      touch st u
    end
  | Fault.Branch (g, _) -> Level_queue.push st.queue g);
  (* Levels pop in nondecreasing order and a gate's fanouts sit on higher
     levels, so each gate is evaluated once, after its changed fanins. *)
  let id = ref (Level_queue.pop st.queue) in
  while !id >= 0 do
    update st ~fault_gate ~fault_pin ~stuck !id;
    id := Level_queue.pop st.queue
  done;
  let det = ref 0L in
  for k = 0 to st.n_touched - 1 do
    let id = st.stack.(k) in
    let good = Bytes.get_int64_ne st.good (8 * id) in
    if Compiled.is_po st.cmp id then det := Int64.logor !det (Int64.logxor (word st id) good);
    Bytes.set_int64_ne st.words (8 * id) good;
    Bytes.unsafe_set st.touched id '\000'
  done;
  st.n_touched <- 0;
  (* An undetected fault, the common case once the easy faults are dropped,
     returns the preallocated 0L instead of boxing its mask. *)
  if !det = 0L then 0L else !det

let detect_single st f vector =
  let words = Array.map (fun b -> if b then 1L else 0L) vector in
  load_patterns st words;
  Int64.logand (detect st f) 1L <> 0L

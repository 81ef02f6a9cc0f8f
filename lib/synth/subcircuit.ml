type t = {
  root : int;
  gates : int list;
  inputs : int array;
}

let pp ppf s =
  Format.fprintf ppf "root %d, gates {%s}, inputs [%s]" s.root
    (String.concat " " (List.map string_of_int s.gates))
    (String.concat " " (Array.to_list (Array.map string_of_int s.inputs)))

let is_gate c id =
  match Circuit.kind c id with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor -> true

let is_const c id =
  match Circuit.kind c id with
  | Gate.Const0 | Gate.Const1 -> true
  | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
  | Gate.Nor | Gate.Xor | Gate.Xnor -> false

module ISet = Set.Make (Int)

(* A pushed gate set: its members and its input cut (the fanins of members
   outside the set, constants excluded), both sorted ascending, and the
   XOR of its members' node keys. *)
type entry = {
  members : int array;
  cut : int array;
  hash : int;
}

let empty_entry = { members = [||]; cut = [||]; hash = 0 }

(* Enumeration scratch, reused across roots when the caller owns it. The
   pushed sets sit in [queue] in push order, so the breadth-first queue is
   the slice between the pop cursor and the push count. [slots] is an
   open-addressing (linear probing) table of [queue] indices plus one, 0
   marking an empty slot, kept at most half full. [buf] holds the cut
   merge. *)
type dedup = {
  mutable queue : entry array;
  mutable slots : int array;
  mutable buf : int array;
}

let dedup () = { queue = [||]; slots = Array.make 64 0; buf = Array.make 16 0 }

(* Per-node hash key. A set's hash is the XOR of its members' keys, so a
   pushed set's hash is its parent's with one more XOR. A collision only
   costs a comparison: membership is decided by exact array equality. *)
let node_key id =
  let z = (id + 1) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 31)

let mem_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = x

(* [s] with [x] inserted, for sorted [s] not containing [x]. *)
let insert_sorted s x =
  let n = Array.length s in
  let r = Array.make (n + 1) x in
  let p = ref 0 in
  while !p < n && s.(!p) < x do
    r.(!p) <- s.(!p);
    incr p
  done;
  Array.blit s !p r (!p + 1) (n - !p);
  r

(* Whether sorted [a] equals [s] with [x] inserted (as [insert_sorted]). *)
let equals_inserted a s x =
  let n = Array.length s in
  Array.length a = n + 1
  &&
  let p = ref 0 in
  while !p < n && s.(!p) < x do incr p done;
  let ok = ref (a.(!p) = x) in
  for i = 0 to n - 1 do
    if a.(if i < !p then i else i + 1) <> s.(i) then ok := false
  done;
  !ok

(* The cut of S ∪ {h} for a gate [h] on cut(S): cut(S) without [h], merged
   with the non-constant fanins of [h] outside S ∪ {h} ([members]). A
   fanin already on cut(S), or repeated on [h], is kept once. *)
let extend_cut sc c cut members h =
  let fins = Circuit.fanins c h in
  let nf = Array.length fins and nc = Array.length cut in
  if Array.length sc.buf < 2 * (nf + nc) then sc.buf <- Array.make (2 * (nf + nc)) 0;
  let buf = sc.buf in
  (* the new inputs, sorted and distinct, in [buf.(0 .. m-1)] *)
  let m = ref 0 in
  for x = 0 to nf - 1 do
    let f = fins.(x) in
    if (not (is_const c f)) && not (mem_sorted members f) then begin
      let i = ref 0 in
      while !i < !m && buf.(!i) < f do incr i done;
      if !i = !m || buf.(!i) <> f then begin
        for j = !m downto !i + 1 do buf.(j) <- buf.(j - 1) done;
        buf.(!i) <- f;
        incr m
      end
    end
  done;
  let m = !m in
  (* merge into [buf.(m ..)] *)
  let o = ref m and a = ref 0 and b = ref 0 in
  while !a < nc || !b < m do
    if !a < nc && cut.(!a) = h then incr a
    else if !b >= m || (!a < nc && cut.(!a) < buf.(!b)) then begin
      buf.(!o) <- cut.(!a);
      incr o;
      incr a
    end
    else begin
      if !a < nc && cut.(!a) = buf.(!b) then incr a;
      buf.(!o) <- buf.(!b);
      incr o;
      incr b
    end
  done;
  Array.sub buf m (!o - m)

let enumerate ?dedup:scratch ~k ~max_candidates c root =
  if not (is_gate c root) then invalid_arg "Subcircuit.enumerate: root not a gate";
  (* A caller-supplied table is cleared, not rebuilt, so once it has grown
     to the largest root's working set the steady state never resizes.
     Clearing is mandatory for correctness: every stored set contains its
     root, so a stale entry could dedup this root's own seed away. *)
  let sc = match scratch with Some sc -> sc | None -> dedup () in
  Array.fill sc.slots 0 (Array.length sc.slots) 0;
  let pushes = ref 0 in
  let push_budget = max 256 (max_candidates * 20) in
  let rec free_slot i =
    if sc.slots.(i) = 0 then i else free_slot ((i + 1) land (Array.length sc.slots - 1))
  in
  (* Double the table and re-insert every pushed set. *)
  let grow () =
    sc.slots <- Array.make (2 * Array.length sc.slots) 0;
    let mask = Array.length sc.slots - 1 in
    for j = 0 to !pushes - 1 do
      sc.slots.(free_slot (sc.queue.(j).hash land mask)) <- j + 1
    done
  in
  (* Push S ∪ {h} for the set [e] = S, unless it was pushed before. A
     duplicate uses no budget. *)
  let push e h =
    if !pushes < push_budget then begin
      let hash = e.hash lxor node_key h in
      let mask = Array.length sc.slots - 1 in
      let i = ref (hash land mask) and seen = ref false in
      while (not !seen) && sc.slots.(!i) <> 0 do
        let o = sc.queue.(sc.slots.(!i) - 1) in
        if o.hash = hash && equals_inserted o.members e.members h then seen := true
        else i := (!i + 1) land mask
      done;
      if not !seen then begin
        let members = insert_sorted e.members h in
        let cut = extend_cut sc c e.cut members h in
        if !pushes = Array.length sc.queue then begin
          let q = Array.make (max 64 (2 * !pushes)) empty_entry in
          Array.blit sc.queue 0 q 0 !pushes;
          sc.queue <- q
        end;
        sc.queue.(!pushes) <- { members; cut; hash };
        incr pushes;
        sc.slots.(!i) <- !pushes;
        if 2 * !pushes > mask then grow ()
      end
    end
  in
  (* The seed {root} is the empty set with the root absorbed. *)
  push empty_entry root;
  let results = ref [] in
  let count = ref 0 in
  let head = ref 0 in
  while !head < !pushes && !count < max_candidates do
    let e = sc.queue.(!head) in
    incr head;
    let n = Array.length e.cut in
    if n <= k then begin
      incr count;
      results := { root; gates = Array.to_list e.members; inputs = e.cut } :: !results
    end;
    (* Expand by absorbing each gate on the cut. A set over [k] inputs is
       no candidate, but absorbing more gates can still shrink its cut
       when the absorbed gate's fanins are already inputs, so expansion
       continues within a slack of two inputs to find such
       reconvergences. *)
    if n <= k + 2 then Array.iter (fun h -> if is_gate c h then push e h) e.cut
  done;
  (* Let go of this root's sets: a reused queue that kept them would have
     the next minor collection promote them all to the major heap, which
     then grows. *)
  Array.fill sc.queue 0 !pushes empty_entry;
  List.rev !results

(* Topological order of the member gates, computed locally: candidates are
   a handful of gates, so walking the whole circuit's topo order per
   extraction would dwarf the word-parallel sweep itself. *)
let member_order c s =
  let members = List.fold_left (fun acc g -> ISet.add g acc) ISet.empty s.gates in
  let order = Array.make (List.length s.gates) 0 in
  let placed = ref ISet.empty in
  let idx = ref 0 in
  let remaining = ref s.gates in
  while !remaining <> [] do
    let ready, waiting =
      List.partition
        (fun g ->
          Array.for_all
            (fun f -> (not (ISet.mem f members)) || ISet.mem f !placed)
            (Circuit.fanins c g))
        !remaining
    in
    if ready = [] then invalid_arg "Subcircuit: cyclic member set";
    List.iter
      (fun g ->
        order.(!idx) <- g;
        incr idx;
        placed := ISet.add g !placed)
      ready;
    remaining := waiting
  done;
  order

let extract_scalar c s =
  let n = Array.length s.inputs in
  if n > 16 then invalid_arg "Subcircuit.extract: too many inputs";
  let order = member_order c s in
  let values = Array.make (Circuit.size c) false in
  Truthtable.create n (fun m ->
      Array.iteri
        (fun j input -> values.(input) <- m land (1 lsl (n - 1 - j)) <> 0)
        s.inputs;
      Array.iter
        (fun g ->
          let fins = Circuit.fanins c g in
          let vals =
            Array.map
              (fun f ->
                match Circuit.kind c f with
                | Gate.Const0 -> false
                | Gate.Const1 -> true
                | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or
                | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor -> values.(f))
              fins
          in
          values.(g) <- Gate.eval (Circuit.kind c g) vals)
        order;
      values.(s.root))

let extract_words_c =
  Obs.Counter.make ~help:"64-minterm words swept by bit-parallel extract" "extract.words"

(* Bit-parallel extraction: every cut input gets its standard 64-bit
   simulation pattern and the member gates are swept once per 64 minterms —
   a single sweep for the default K <= 6. The [scratch] word buffer (one
   slot per circuit node) is reused across candidates by the engine. *)
let extract ?scratch c s =
  let n = Array.length s.inputs in
  if n > 16 then invalid_arg "Subcircuit.extract: too many inputs";
  let order = member_order c s in
  let values =
    match scratch with
    | Some v when Array.length v >= Circuit.size c -> v
    | Some _ -> invalid_arg "Subcircuit.extract: scratch smaller than the circuit"
    | None -> Array.make (Circuit.size c) 0L
  in
  (* Constant fanins keep a fixed word for the whole sweep. *)
  Array.iter
    (fun g ->
      Array.iter
        (fun f ->
          match Circuit.kind c f with
          | Gate.Const0 -> values.(f) <- 0L
          | Gate.Const1 -> values.(f) <- -1L
          | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
          | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
        (Circuit.fanins c g))
    order;
  let nw = if n <= 6 then 1 else 1 lsl (n - 6) in
  let out = Array.make nw 0L in
  for w = 0 to nw - 1 do
    (* Minterm [64w + l]: variable x_(j+1) reads index bit n-1-j — bit l of
       the standard pattern when in-block, bit (n-1-j-6) of w otherwise. *)
    Array.iteri
      (fun j input ->
        let p = n - 1 - j in
        values.(input) <-
          (if p < 6 then Truthtable.sim_pattern p
           else if w land (1 lsl (p - 6)) <> 0 then -1L
           else 0L))
      s.inputs;
    Array.iter
      (fun g -> values.(g) <- Gate.eval_word_on (Circuit.kind c g) values (Circuit.fanins c g))
      order;
    out.(w) <- values.(s.root)
  done;
  Obs.Counter.add extract_words_c nw;
  Truthtable.of_words n out

let removable_gates c s =
  let set = List.fold_left (fun acc g -> ISet.add g acc) ISet.empty s.gates in
  let externally_visible g =
    g <> s.root
    && (Circuit.is_output c g
       || List.exists (fun r -> not (ISet.mem r set)) (Circuit.fanouts c g))
  in
  let kept = ref ISet.empty in
  let rec keep g =
    if (not (ISet.mem g !kept)) && ISet.mem g set && g <> s.root then begin
      kept := ISet.add g !kept;
      Array.iter keep (Circuit.fanins c g)
    end
  in
  List.iter (fun g -> if externally_visible g then keep g) s.gates;
  List.filter (fun g -> not (ISet.mem g !kept)) s.gates

let removable_cost c s =
  List.fold_left
    (fun acc g ->
      acc + Gate.two_input_equivalents (Circuit.kind c g) (Circuit.fanin_count c g))
    0 (removable_gates c s)

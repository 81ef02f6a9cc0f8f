type t = {
  root : int;
  gates : int list;
  inputs : int array;
}

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

(* Enumeration scratch, reused across roots when the caller owns it. Every
   pushed gate set lives in [arena]: its members, then its input cut (the
   fanins of members outside the set, constants excluded), both sorted
   ascending, back to back from [off.(j)] for the [j]-th set pushed.
   [nmem], [ncut] and [hash] hold its member count, its cut length and the
   XOR of its members' node keys. The breadth-first queue is the range of
   set numbers between the pop cursor and the push count [pushed]. [slots]
   is an open-addressing (linear probing) table of set numbers plus one, 0
   marking an empty slot, kept at most half full. [buf] holds a pushed
   gate's new inputs. Everything is an int array that outlives the root,
   so once the arrays have grown a push allocates nothing. *)
type dedup = {
  mutable pushed : int;
  mutable arena : int array;
  mutable off : int array;
  mutable nmem : int array;
  mutable ncut : int array;
  mutable hash : int array;
  mutable slots : int array;
  mutable buf : int array;
}

let dedup () =
  {
    pushed = 0;
    arena = Array.make 1024 0;
    off = Array.make 64 0;
    nmem = Array.make 64 0;
    ncut = Array.make 64 0;
    hash = Array.make 64 0;
    slots = Array.make 64 0;
    buf = Array.make 16 0;
  }

(* Per-node hash key. A set's hash is the XOR of its members' keys, so a
   pushed set's hash is its parent's with one more XOR. A collision only
   costs a comparison: membership is decided by exact equality. *)
let node_key id =
  let z = (id + 1) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 31)

(* The index of [x] in the sorted slice [a.(lo .. lo + len - 1)], or -1. *)
let find_sorted a lo len x =
  let stop = lo + len in
  let lo = ref lo and hi = ref stop in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < stop && a.(!lo) = x then !lo else -1

(* Whether the [n + 1] sorted members at [oj] equal the [n] at [po] with
   [x] inserted. *)
let equals_inserted a oj po n x =
  let p = ref 0 in
  while !p < n && a.(po + !p) < x do incr p done;
  a.(oj + !p) = x
  &&
  let i = ref 0 in
  while !i < n && a.(oj + (if !i < !p then !i else !i + 1)) = a.(po + !i) do incr i done;
  !i = n

(* Write the cut of S ∪ {h} for a gate [h] on cut(S) at [dst] and return
   its length: cut(S) (the [nc] inputs at [co]) without [h], merged with
   the non-constant fanins [fins] of [h] outside S ∪ {h} (the [nm] members
   at [mo]). A fanin already on cut(S), or repeated on [h], is kept once. *)
let extend_cut sc c a fins ~co ~nc ~mo ~nm ~dst h =
  let nf = Array.length fins in
  if Array.length sc.buf < nf then sc.buf <- Array.make (2 * nf) 0;
  let buf = sc.buf in
  (* the new inputs, sorted and distinct, in [buf.(0 .. m-1)] *)
  let m = ref 0 in
  for x = 0 to nf - 1 do
    let f = fins.(x) in
    if (not (is_const c f)) && find_sorted a mo nm f < 0 then begin
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
  let o = ref dst and i = ref co and b = ref 0 in
  let cend = co + nc in
  while !i < cend || !b < m do
    if !i < cend && a.(!i) = h then incr i
    else if !b >= m || (!i < cend && a.(!i) < buf.(!b)) then begin
      a.(!o) <- a.(!i);
      incr o;
      incr i
    end
    else begin
      if !i < cend && a.(!i) = buf.(!b) then incr i;
      a.(!o) <- buf.(!b);
      incr o;
      incr b
    end
  done;
  !o - dst

let enumerate ?dedup:scratch ~k ~max_candidates c root =
  if not (is_gate c root) then invalid_arg "Subcircuit.enumerate: root not a gate";
  (* A caller-supplied table is cleared, not rebuilt, so once it has grown
     to the largest root's working set the steady state never resizes.
     Clearing is mandatory for correctness: every stored set contains its
     root, so a stale entry could dedup this root's own seed away. Only
     the previous root's slots are cleared, each found by probing from
     its set's hash: most roots push far fewer sets than the table holds. *)
  let sc = match scratch with Some sc -> sc | None -> dedup () in
  let mask = Array.length sc.slots - 1 in
  for j = 0 to sc.pushed - 1 do
    let i = ref (sc.hash.(j) land mask) in
    while sc.slots.(!i) <> j + 1 do i := (!i + 1) land mask done;
    sc.slots.(!i) <- 0
  done;
  sc.pushed <- 0;
  let used = ref 0 in
  let push_budget = max 256 (max_candidates * 20) in
  let rec free_slot i =
    if sc.slots.(i) = 0 then i else free_slot ((i + 1) land (Array.length sc.slots - 1))
  in
  (* Double the table and re-insert every pushed set. *)
  let grow () =
    sc.slots <- Array.make (2 * Array.length sc.slots) 0;
    let mask = Array.length sc.slots - 1 in
    for j = 0 to sc.pushed - 1 do
      sc.slots.(free_slot (sc.hash.(j) land mask)) <- j + 1
    done
  in
  (* Room for one more set of up to [need] ints. *)
  let reserve need =
    if !used + need > Array.length sc.arena then begin
      let a = Array.make (max (2 * Array.length sc.arena) (!used + need)) 0 in
      Array.blit sc.arena 0 a 0 !used;
      sc.arena <- a
    end;
    if sc.pushed = Array.length sc.off then begin
      let extend x =
        let y = Array.make (2 * sc.pushed) 0 in
        Array.blit x 0 y 0 sc.pushed;
        y
      in
      sc.off <- extend sc.off;
      sc.nmem <- extend sc.nmem;
      sc.ncut <- extend sc.ncut;
      sc.hash <- extend sc.hash
    end
  in
  (* Push S ∪ {h} for the set S whose [pm] members and [pc] cut inputs
     start at [po], with hash [ph], unless it was pushed before. A
     duplicate uses no budget. *)
  let push po pm pc ph h =
    if sc.pushed < push_budget then begin
      let hash = ph lxor node_key h in
      let mask = Array.length sc.slots - 1 in
      let i = ref (hash land mask) and seen = ref false in
      while (not !seen) && sc.slots.(!i) <> 0 do
        let j = sc.slots.(!i) - 1 in
        if
          sc.hash.(j) = hash
          && sc.nmem.(j) = pm + 1
          && equals_inserted sc.arena sc.off.(j) po pm h
        then seen := true
        else i := (!i + 1) land mask
      done;
      if not !seen then begin
        let fins = Circuit.fanins c h in
        reserve (pm + 1 + pc + Array.length fins);
        let a = sc.arena and mo = !used in
        (* S's members with [h] inserted *)
        let p = ref 0 in
        while !p < pm && a.(po + !p) < h do
          a.(mo + !p) <- a.(po + !p);
          incr p
        done;
        a.(mo + !p) <- h;
        for x = !p to pm - 1 do
          a.(mo + x + 1) <- a.(po + x)
        done;
        let nc =
          extend_cut sc c a fins ~co:(po + pm) ~nc:pc ~mo ~nm:(pm + 1) ~dst:(mo + pm + 1) h
        in
        let j = sc.pushed in
        sc.off.(j) <- mo;
        sc.nmem.(j) <- pm + 1;
        sc.ncut.(j) <- nc;
        sc.hash.(j) <- hash;
        used := mo + pm + 1 + nc;
        sc.pushed <- j + 1;
        sc.slots.(!i) <- j + 1;
        if 2 * sc.pushed > mask then grow ()
      end
    end
  in
  (* The seed {root} is the empty set with the root absorbed. *)
  push 0 0 0 0 root;
  let results = ref [] in
  let count = ref 0 in
  let head = ref 0 in
  while !head < sc.pushed && !count < max_candidates do
    let j = !head in
    incr head;
    let o = sc.off.(j) and m = sc.nmem.(j) and n = sc.ncut.(j) in
    if n <= k then begin
      incr count;
      let gates = ref [] in
      for x = o + m - 1 downto o do
        gates := sc.arena.(x) :: !gates
      done;
      results := { root; gates = !gates; inputs = Array.sub sc.arena (o + m) n } :: !results
    end;
    (* Expand by absorbing each gate on the cut. A set over [k] inputs is
       no candidate, but absorbing more gates can still shrink its cut
       when the absorbed gate's fanins are already inputs, so expansion
       continues within a slack of two inputs to find such
       reconvergences. A push may move the arena, so it is read afresh. *)
    if n <= k + 2 then
      for x = 0 to n - 1 do
        let h = sc.arena.(o + m + x) in
        if is_gate c h then push o m n sc.hash.(j) h
      done
  done;
  List.rev !results

let read_depth sc =
  let d = ref 0 in
  for j = 0 to sc.pushed - 1 do
    if sc.nmem.(j) > !d then d := sc.nmem.(j)
  done;
  max 0 (!d - 1)

(* Kernel scratch, reused across candidates when the caller owns it:
   [words] holds one 64-bit simulation word per node id (8 bytes each,
   read and written only through [Bytes.get_int64_ne]/[set_int64_ne] in
   inlined code, so no word is ever boxed), [marks] one byte per node id,
   zero between calls, and [order] the members in evaluation order. Both
   byte tables grow to the circuit on entry. *)
type scratch = {
  mutable words : Bytes.t;
  mutable marks : Bytes.t;
  mutable order : int array;
}

let scratch () = { words = Bytes.empty; marks = Bytes.empty; order = [||] }
let scratch_or_fresh = function Some sc -> sc | None -> scratch ()

let fit sc c =
  let n = Circuit.size c in
  if Bytes.length sc.marks < n then begin
    let cap = max n (2 * Bytes.length sc.marks) in
    sc.marks <- Bytes.make cap '\000';
    sc.words <- Bytes.make (8 * cap) '\000'
  end

let[@inline] mark sc id = Bytes.get sc.marks id
let[@inline] set_mark sc id v = Bytes.set sc.marks id v
let clear_marks sc s = List.iter (fun g -> set_mark sc g '\000') s.gates

exception Cyclic

(* Topological order of the member gates the root reads, in [sc.order]: a
   post-order DFS from the root over the members, marked ['\001'] in
   [sc.marks] (['\002'] on the DFS stack, ['\003'] placed). Members the
   root does not read cannot change its value and are left out. Returns
   the number placed; every mark is zero again on return. *)
let member_order sc c s =
  List.iter (fun g -> set_mark sc g '\001') s.gates;
  let m = List.length s.gates in
  if Array.length sc.order < m then sc.order <- Array.make (max m (2 * Array.length sc.order)) 0;
  let placed = ref 0 in
  let rec visit g =
    match mark sc g with
    | '\001' ->
      set_mark sc g '\002';
      Array.iter visit (Circuit.fanins c g);
      set_mark sc g '\003';
      sc.order.(!placed) <- g;
      incr placed
    | '\002' -> raise Cyclic
    | _ -> ()
  in
  match visit s.root with
  | () ->
    clear_marks sc s;
    !placed
  | exception Cyclic ->
    clear_marks sc s;
    invalid_arg "Subcircuit: cyclic member set"

let extract_words_c =
  Obs.Counter.make ~help:"64-minterm words swept by bit-parallel extract" "extract.words"

let[@inline] word sc id = Bytes.get_int64_ne sc.words (8 * id)
let[@inline] set_word sc id w = Bytes.set_int64_ne sc.words (8 * id) w

(* Bit-parallel extraction: every cut input gets its standard 64-bit
   simulation pattern and the member gates are swept once per 64 minterms —
   a single sweep for the default K <= 6. *)
let extract ?scratch c s =
  let n = Array.length s.inputs in
  if n > 16 then invalid_arg "Subcircuit.extract: too many inputs";
  let sc = scratch_or_fresh scratch in
  fit sc c;
  let placed = member_order sc c s in
  let order = sc.order in
  (* Constant fanins keep a fixed word for the whole sweep. *)
  for x = 0 to placed - 1 do
    Array.iter
      (fun f ->
        match Circuit.kind c f with
        | Gate.Const0 -> set_word sc f 0L
        | Gate.Const1 -> set_word sc f (-1L)
        | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
        | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
      (Circuit.fanins c order.(x))
  done;
  let nw = if n <= 6 then 1 else 1 lsl (n - 6) in
  let out = Array.make nw 0L in
  for w = 0 to nw - 1 do
    (* Minterm [64w + l]: variable x_(j+1) reads index bit n-1-j — bit l of
       the standard pattern when in-block, bit (n-1-j-6) of w otherwise. *)
    for j = 0 to n - 1 do
      let p = n - 1 - j in
      set_word sc s.inputs.(j)
        (if p < 6 then Truthtable.sim_pattern p
         else if w land (1 lsl (p - 6)) <> 0 then -1L
         else 0L)
    done;
    for x = 0 to placed - 1 do
      let g = order.(x) in
      let fins = Circuit.fanins c g in
      let kind = Circuit.kind c g in
      let acc = ref 0L in
      (match kind with
      | Gate.Input -> invalid_arg "Subcircuit.extract: a member is a primary input"
      | Gate.Const0 -> ()
      | Gate.Const1 -> acc := -1L
      | Gate.Buf | Gate.Not -> acc := word sc fins.(0)
      | Gate.And | Gate.Nand ->
        acc := -1L;
        for i = 0 to Array.length fins - 1 do
          acc := Int64.logand !acc (word sc fins.(i))
        done
      | Gate.Or | Gate.Nor ->
        for i = 0 to Array.length fins - 1 do
          acc := Int64.logor !acc (word sc fins.(i))
        done
      | Gate.Xor | Gate.Xnor ->
        for i = 0 to Array.length fins - 1 do
          acc := Int64.logxor !acc (word sc fins.(i))
        done);
      set_word sc g (if Gate.inverting kind then Int64.lognot !acc else !acc)
    done;
    out.(w) <- word sc s.root
  done;
  Obs.Counter.add extract_words_c nw;
  Truthtable.of_words n out

(* Members marked ['\001'], then the kept ones re-marked ['\002']: the
   backward closure, within the members and short of the root, of every
   member that is an output or has a reader outside the set. What stays
   ['\001'] is removable. [f] folds over the members with their verdict;
   every mark is zero again on return. *)
let fold_removable ?scratch c s f acc =
  let sc = scratch_or_fresh scratch in
  fit sc c;
  List.iter (fun g -> set_mark sc g '\001') s.gates;
  let rec keep g =
    if g <> s.root && mark sc g = '\001' then begin
      set_mark sc g '\002';
      Array.iter keep (Circuit.fanins c g)
    end
  in
  List.iter
    (fun g ->
      if
        g <> s.root
        && (Circuit.is_output c g
           || List.exists (fun r -> mark sc r = '\000') (Circuit.fanouts c g))
      then keep g)
    s.gates;
  let acc =
    List.fold_left (fun acc g -> f acc g (mark sc g = '\001')) acc s.gates
  in
  clear_marks sc s;
  acc

let removable_gates ?scratch c s =
  List.rev
    (fold_removable ?scratch c s (fun acc g removable -> if removable then g :: acc else acc) [])

let removable_cost ?scratch c s =
  fold_removable ?scratch c s
    (fun acc g removable ->
      if removable then
        acc + Gate.two_input_equivalents (Circuit.kind c g) (Circuit.fanin_count c g)
      else acc)
    0

let of_cut ?scratch c ~root ~inputs =
  if not (is_gate c root) then invalid_arg "Subcircuit.of_cut: root not a gate";
  let sc = scratch_or_fresh scratch in
  fit sc c;
  let gates = ref [] in
  let rec visit g =
    if
      mark sc g = '\000'
      && (not (is_const c g))
      && find_sorted inputs 0 (Array.length inputs) g < 0
    then begin
      if not (is_gate c g) then begin
        List.iter (fun g -> set_mark sc g '\000') !gates;
        invalid_arg "Subcircuit.of_cut: the cut does not separate the root from an input"
      end;
      set_mark sc g '\001';
      gates := g :: !gates;
      Array.iter visit (Circuit.fanins c g)
    end
  in
  visit root;
  let gates = List.sort Int.compare !gates in
  let s = { root; gates; inputs } in
  clear_marks sc s;
  s

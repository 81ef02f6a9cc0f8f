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

(* Topological order of the member gates the root reads: a post-order DFS
   from the root over the sorted member array. Members the root does not
   read cannot change its value and are left out. *)
let member_order c s =
  let members = Array.of_list s.gates in
  let m = Array.length members in
  (* 0 unvisited, 1 on the DFS stack, 2 placed *)
  let state = Bytes.make m '\000' in
  let order = Array.make m 0 in
  let placed = ref 0 in
  let rec visit g =
    let i = find_sorted members 0 m g in
    if i >= 0 then
      match Bytes.get state i with
      | '\002' -> ()
      | '\001' -> invalid_arg "Subcircuit: cyclic member set"
      | _ ->
        Bytes.set state i '\001';
        Array.iter visit (Circuit.fanins c g);
        Bytes.set state i '\002';
        order.(!placed) <- g;
        incr placed
  in
  visit s.root;
  if !placed = m then order else Array.sub order 0 !placed

let extract_scalar c s =
  let n = Array.length s.inputs in
  if n > 16 then invalid_arg "Subcircuit.extract: too many inputs";
  (* The whole circuit's topological order, not [member_order]: the
     differential tests then check [extract]'s member order too. *)
  let order =
    Array.of_list
      (List.filter (fun g -> List.mem g s.gates) (Array.to_list (Circuit.topo_order c)))
  in
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

(* Reference cut enumeration: the enumerator the library used before it
   carried each queued gate set's cut incrementally over sorted arrays.
   Every popped set's cut is rebuilt from [Set.Make (Int)] trees and
   duplicates are found by set equality, so the differential tests compare
   two implementations that share only the circuit accessors. [enumerate]
   also returns how many sets it pushed, so a test can tell whether the
   push budget bound. [extract_scalar], at the end, is the per-minterm
   reference for [Subcircuit.extract]. *)

module ISet = Set.Make (Int)

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

(* Input cut of a gate set: fanins of members outside the set, constants
   excluded, sorted. *)
let cut_of c set =
  ISet.fold
    (fun g acc ->
      Array.fold_left
        (fun acc f ->
          if ISet.mem f set || is_const c f then acc else ISet.add f acc)
        acc (Circuit.fanins c g))
    set ISet.empty

module SetTbl = Hashtbl.Make (struct
  type t = ISet.t

  let equal = ISet.equal
  let hash s = ISet.fold (fun e acc -> (acc * 0x01000193) lxor e) s 0x811C9DC5 land max_int
end)

(* Breadth-first growth from the root: a popped set within [k] inputs is a
   candidate and absorbs each gate on its cut (ascending); a set within
   [k + 2] inputs only absorbs. A set already seen is not pushed again and
   uses no budget. *)
let enumerate_counted ~k ~max_candidates c root =
  if not (is_gate c root) then invalid_arg "Ref_subcircuit.enumerate: root not a gate";
  let seen = SetTbl.create 64 in
  let results = ref [] in
  let count = ref 0 in
  let pushes = ref 0 in
  let push_budget = max 256 (max_candidates * 20) in
  let queue = Queue.create () in
  let push set =
    if !pushes < push_budget && not (SetTbl.mem seen set) then begin
      incr pushes;
      SetTbl.add seen set ();
      Queue.add set queue
    end
  in
  push (ISet.singleton root);
  while (not (Queue.is_empty queue)) && !count < max_candidates do
    let set = Queue.pop queue in
    let cut = cut_of c set in
    if ISet.cardinal cut <= k then begin
      incr count;
      results :=
        {
          Subcircuit.root;
          gates = ISet.elements set;
          inputs = Array.of_list (ISet.elements cut);
        }
        :: !results;
      ISet.iter (fun h -> if is_gate c h then push (ISet.add h set)) cut
    end
    else if ISet.cardinal cut <= k + 2 then
      ISet.iter (fun h -> if is_gate c h then push (ISet.add h set)) cut
  done;
  (List.rev !results, !pushes)

let enumerate ~k ~max_candidates c root = fst (enumerate_counted ~k ~max_candidates c root)

(* Reference [Subcircuit.extract]: one evaluation of the member gates per
   minterm, in the whole circuit's topological order, so it shares no
   member ordering with [extract] and the differential tests check that
   order too. *)
let extract_scalar c (s : Subcircuit.t) =
  let n = Array.length s.inputs in
  if n > 16 then invalid_arg "Ref_subcircuit.extract_scalar: too many inputs";
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

(* Reference [Subcircuit.removable_gates] and [removable_cost]: the
   versions that built [Set.Make (Int)] trees of the members and of the
   kept closure, before the library marked members in a reused byte
   table. *)
let removable_gates c (s : Subcircuit.t) =
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

(* Reference [Truthtable.support_mask]: variable [x_i] is essential iff
   its two cofactors differ. *)
let support_mask t =
  let m = ref 0 in
  for i = 1 to Truthtable.arity t do
    if
      not
        (Truthtable.equal (Truthtable.cofactor t ~var:i true)
           (Truthtable.cofactor t ~var:i false))
    then m := !m lor (1 lsl (i - 1))
  done;
  !m

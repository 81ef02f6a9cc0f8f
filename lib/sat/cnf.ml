(* Tseitin encoding with structural hashing over (kind, sorted fanin lits). *)

(* A node's key: a tag ([tag_and] or [tag_xor]) followed by its normalised
   fanin literals. Literals are non-negative, so hashing and comparing the
   ints directly is exact. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do incr i done;
    !i = n

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + a.(i)
    done;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

let tag_and = 0
let tag_xor = 1

type env = {
  sat : Sat.t;
  mutable tlit : int;  (* constant-true literal *)
  cache : int Tbl.t;
  mutable scratch : int array;  (* [normalise_and]'s buffer *)
}

let assert_true env =
  env.tlit <- Sat.lit (Sat.new_var env.sat);
  Sat.add_clause env.sat [| env.tlit |]

let create sat =
  let env = { sat; tlit = 0; cache = Tbl.create 256; scratch = Array.make 16 0 } in
  assert_true env;
  env

let clear env =
  Sat.clear env.sat;
  Tbl.clear env.cache;
  assert_true env

let solver env = env.sat
let ltrue env = env.tlit
let lfalse env = Sat.neg env.tlit
let no_lit = min_int

(* The fanins of a conjunction (each negated first when [flip]) sorted into
   [scratch] by insertion, with true literals and duplicates dropped; a
   literal and its negation differ only in bit 0, so a complementary pair
   sits adjacent after sorting. Returns how many literals remain, or -1
   when a false literal or a complementary pair forces the conjunction to
   false. *)
let normalise_and env ~flip lits =
  let n = Array.length lits in
  if Array.length env.scratch < n then env.scratch <- Array.make (2 * n) 0;
  let b = env.scratch in
  let fls = lfalse env in
  let k = ref 0 and zero = ref false in
  for i = 0 to n - 1 do
    let l = if flip then Sat.neg lits.(i) else lits.(i) in
    if l = fls then zero := true
    else if l <> env.tlit then begin
      let j = ref !k in
      while !j > 0 && b.(!j - 1) > l do
        b.(!j) <- b.(!j - 1);
        decr j
      done;
      b.(!j) <- l;
      incr k
    end
  done;
  if !zero then -1
  else begin
    let m = ref 0 and i = ref 0 in
    while !m >= 0 && !i < !k do
      let l = b.(!i) in
      incr i;
      if !m = 0 || l <> b.(!m - 1) then
        if !m > 0 && l = Sat.neg b.(!m - 1) then m := -1
        else begin
          b.(!m) <- l;
          incr m
        end
    done;
    !m
  end

let and_gen env ~flip lits =
  match normalise_and env ~flip lits with
  | -1 -> lfalse env
  | 0 -> env.tlit
  | 1 -> env.scratch.(0)
  | k -> (
    let key = Array.make (k + 1) tag_and in
    Array.blit env.scratch 0 key 1 k;
    match Tbl.find_opt env.cache key with
    | Some l -> l
    | None ->
      let out = Sat.lit (Sat.new_var env.sat) in
      (* out -> l_i, and (l_1 & ... & l_k) -> out *)
      let pair = [| Sat.neg out; 0 |] in
      for i = 1 to k do
        pair.(1) <- key.(i);
        Sat.add_clause env.sat pair
      done;
      Sat.add_clause env.sat
        (Array.init (k + 1) (fun i -> if i = 0 then out else Sat.neg key.(i)));
      Tbl.add env.cache key out;
      out)

let and_lits env lits = and_gen env ~flip:false lits
let or_lits env lits = Sat.neg (and_gen env ~flip:true lits)

let xor2 env a b =
  if a = env.tlit then Sat.neg b
  else if a = lfalse env then b
  else if b = env.tlit then Sat.neg a
  else if b = lfalse env then a
  else if a = b then lfalse env
  else if a = Sat.neg b then env.tlit
  else begin
    (* Canonical form: both operands in positive phase, sorted; the result
       phase carries the stripped signs. *)
    let sign = (a land 1) lxor (b land 1) = 1 in
    let a = a land lnot 1 and b = b land lnot 1 in
    let a, b = if a <= b then (a, b) else (b, a) in
    let base =
      let key = [| tag_xor; a; b |] in
      match Tbl.find_opt env.cache key with
      | Some l -> l
      | None ->
        let x = Sat.lit (Sat.new_var env.sat) in
        let n = Sat.neg in
        Sat.add_clause env.sat [| n x; a; b |];
        Sat.add_clause env.sat [| n x; n a; n b |];
        Sat.add_clause env.sat [| x; n a; b |];
        Sat.add_clause env.sat [| x; a; n b |];
        Tbl.add env.cache key x;
        x
    in
    if sign then Sat.neg base else base
  end

let xor_lits env lits = Array.fold_left (xor2 env) (lfalse env) lits

let encode_kind env kind args =
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Cnf.encode_kind: Input"
  | Gate.Const0 -> lfalse env
  | Gate.Const1 -> env.tlit
  | Gate.Buf -> args.(0)
  | Gate.Not -> Sat.neg args.(0)
  | Gate.And -> and_lits env args
  | Gate.Or -> or_lits env args
  | Gate.Nand -> Sat.neg (and_lits env args)
  | Gate.Nor -> Sat.neg (or_lits env args)
  | Gate.Xor -> xor_lits env args
  | Gate.Xnor -> Sat.neg (xor_lits env args)

let encode env ~pi_lits c =
  let inputs = Circuit.inputs c in
  if Array.length pi_lits < Array.length inputs then
    invalid_arg "Cnf.encode: not enough input literals";
  let node_lit = Array.make (Circuit.size c) no_lit in
  Array.iteri (fun j id -> node_lit.(id) <- pi_lits.(j)) inputs;
  Array.iter
    (fun id ->
      match Circuit.kind c id with
      | Gate.Input -> ()
      | kind ->
        let args = Array.map (fun f -> node_lit.(f)) (Circuit.fanins c id) in
        node_lit.(id) <- encode_kind env kind args)
    (Circuit.topo_order c);
  Array.map (fun o -> node_lit.(o)) (Circuit.outputs c)

(* Tseitin encoding with structural hashing over (kind, sorted fanin lits). *)

type key =
  | Kand of int list
  | Kxor of int * int

type env = {
  sat : Sat.t;
  tlit : int;  (* constant-true literal *)
  cache : (key, int) Hashtbl.t;
}

let create sat =
  let v = Sat.new_var sat in
  let tlit = Sat.lit v in
  Sat.add_clause sat [| tlit |];
  { sat; tlit; cache = Hashtbl.create 256 }

let solver env = env.sat
let ltrue env = env.tlit
let lfalse env = Sat.neg env.tlit
let no_lit = min_int

(* Sorted fanin list with constants folded and duplicates removed; [None]
   when a complementary pair (or constant false) forces the conjunction to
   false. *)
let normalise_and env lits =
  let lits = List.filter (fun l -> l <> env.tlit) lits in
  if List.exists (fun l -> l = lfalse env) lits then None
  else
    let lits = List.sort_uniq compare lits in
    if List.exists (fun l -> List.mem (Sat.neg l) lits) lits then None
    else Some lits

let and_lits env lits =
  match normalise_and env lits with
  | None -> lfalse env
  | Some [] -> env.tlit
  | Some [ l ] -> l
  | Some lits -> (
    let key = Kand lits in
    match Hashtbl.find_opt env.cache key with
    | Some l -> l
    | None ->
      let out = Sat.lit (Sat.new_var env.sat) in
      (* out -> l_i, and (l_1 & ... & l_k) -> out *)
      List.iter (fun l -> Sat.add_clause env.sat [| Sat.neg out; l |]) lits;
      Sat.add_clause env.sat
        (Array.of_list (out :: List.map Sat.neg lits));
      Hashtbl.add env.cache key out;
      out)

let or_lits env lits = Sat.neg (and_lits env (List.map Sat.neg lits))

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
      let key = Kxor (a, b) in
      match Hashtbl.find_opt env.cache key with
      | Some l -> l
      | None ->
        let x = Sat.lit (Sat.new_var env.sat) in
        let n = Sat.neg in
        Sat.add_clause env.sat [| n x; a; b |];
        Sat.add_clause env.sat [| n x; n a; n b |];
        Sat.add_clause env.sat [| x; n a; b |];
        Sat.add_clause env.sat [| x; a; n b |];
        Hashtbl.add env.cache key x;
        x
    in
    if sign then Sat.neg base else base
  end

let xor_lits env lits = List.fold_left (xor2 env) (lfalse env) lits

let encode_kind env kind args =
  let args = Array.to_list args in
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Cnf.encode_kind: Input"
  | Gate.Const0 -> lfalse env
  | Gate.Const1 -> env.tlit
  | Gate.Buf -> List.hd args
  | Gate.Not -> Sat.neg (List.hd args)
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

type verdict =
  | Sat of bool array
  | Unsat
  | Unknown

exception Abort

type t = { cmp : Compiled.t; imp : Imply.t; limit : int }

let create ?(backtrack_limit = Limits.default.Limits.justify_backtracks) c =
  let cmp = Compiled.of_circuit c in
  { cmp; imp = Imply.create cmp; limit = backtrack_limit }

(* What the search must make true: every target line at its value, or the
   pair objective of [distinguish], [a XOR b = want]. *)
type objective =
  | Targets of (int * Tv.v) array
  | Differ of { a : int; b : int; want : Tv.v }

type state = {
  cmp : Compiled.t;
  imp : Imply.t;
  objective : objective;
  mutable backtracks : int;
  limit : int;
  rng : Rng.t option;  (* randomises backtrace tie-breaks for retries *)
}

let status st =
  match st.objective with
  | Targets targets ->
    (* Conflict: a target line is known and wrong. Satisfied: all targets hold. *)
    let conflict = ref false in
    let open_target = ref None in
    Array.iter
      (fun (node, want) ->
        let v = Imply.good st.imp node in
        if Tv.known v then begin
          if not (Tv.equal v want) then conflict := true
        end
        else if !open_target = None then open_target := Some (node, want))
      targets;
    if !conflict then `Conflict
    else (match !open_target with None -> `Satisfied | Some t -> `Open t)
  | Differ { a; b; want } ->
    (* The value and the backtrace step of an XOR gate over [|a; b|]
       targeted to [want]: the pair is open while either line is X, and the
       objective moves into the first X line with the parity of the other
       line, when known. *)
    let va = Imply.good st.imp a and vb = Imply.good st.imp b in
    if Tv.known va && Tv.known vb then
      if Tv.equal (Tv.lxor_ va vb) want then `Satisfied else `Conflict
    else if not (Tv.known va) then
      `Open (a, if Tv.known vb then Tv.lxor_ want vb else want)
    else `Open (b, Tv.lxor_ want va)

let unassigned st f = not (Tv.known (Imply.good st.imp f))

let rec first_unassigned st fins i =
  if i = Array.length fins then -1
  else if unassigned st fins.(i) then fins.(i)
  else first_unassigned st fins (i + 1)

let rec nth_unassigned st fins i k =
  if not (unassigned st fins.(i)) then nth_unassigned st fins (i + 1) k
  else if k = 0 then fins.(i)
  else nth_unassigned st fins (i + 1) (k - 1)

(* An unassigned fanin, or -1 when there is none: the first one, or with an
   rng the k-th of the n unassigned ones for a single draw
   [k = Rng.int rng n]. *)
let pick_x st fins =
  match st.rng with
  | None -> first_unassigned st fins 0
  | Some rng ->
    let n = ref 0 in
    for i = 0 to Array.length fins - 1 do
      if unassigned st fins.(i) then incr n
    done;
    if !n = 0 then -1 else nth_unassigned st fins 0 (Rng.int rng !n)

let rec backtrace st node v =
  match Compiled.kind st.cmp node with
  | Gate.Input -> if Tv.known (Imply.good st.imp node) then None else Some (node, v)
  | Gate.Const0 | Gate.Const1 -> None
  | Gate.Buf -> backtrace st (Compiled.fanins st.cmp node).(0) v
  | Gate.Not -> backtrace st (Compiled.fanins st.cmp node).(0) (Tv.lnot v)
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
    let phase = if Gate.inverting kind then Tv.lnot v else v in
    let f = pick_x st (Compiled.fanins st.cmp node) in
    if f < 0 then None else backtrace st f phase
  | (Gate.Xor | Gate.Xnor) as kind ->
    let phase = if Gate.inverting kind then Tv.lnot v else v in
    let fins = Compiled.fanins st.cmp node in
    let x_input = ref (-1) in
    let parity = ref Tv.F in
    for i = 0 to Array.length fins - 1 do
      let v = Imply.good st.imp fins.(i) in
      if Tv.known v then parity := Tv.lxor_ !parity v
      else if !x_input < 0 then x_input := fins.(i)
    done;
    if !x_input < 0 then None else backtrace st !x_input (Tv.lxor_ phase !parity)

type outcome = Found | Exhausted

let rec search_rec st =
  match status st with
  | `Satisfied -> Found
  | `Conflict -> Exhausted
  | `Open (node, want) -> (
    match backtrace st node want with
    | None -> Exhausted
    | Some (pi, pv) ->
      let attempt value =
        Imply.assign st.imp pi value;
        search_rec st
      in
      (match attempt pv with
      | Found -> Found
      | Exhausted ->
        st.backtracks <- st.backtracks + 1;
        if st.backtracks > st.limit then raise Abort;
        (match attempt (Tv.lnot pv) with
        | Found -> Found
        | Exhausted ->
          Imply.assign st.imp pi Tv.X;
          Exhausted)))

let solve (t : t) ?rng ?prefer objective =
  Imply.reset t.imp;
  let st =
    {
      cmp = t.cmp;
      imp = t.imp;
      objective;
      backtracks = 0;
      limit = t.limit;
      rng;
    }
  in
  match search_rec st with
  | Found ->
    let fill i =
      match prefer with Some p -> p.(i) | None -> false
    in
    let vec =
      Array.mapi
        (fun i pi ->
          match Imply.good st.imp pi with Tv.T -> true | Tv.F -> false | Tv.X -> fill i)
        (Compiled.inputs t.cmp)
    in
    Sat vec
  | Exhausted -> Unsat
  | exception Abort -> Unknown

let run t ?rng ?prefer targets =
  Obs.Span.with_ "justify.search" (fun () ->
      solve t ?rng ?prefer
        (Targets (Array.of_list (List.map (fun (n, b) -> (n, Tv.of_bool b)) targets))))

let distinguish t ?rng ~complement a b =
  Obs.Span.with_ "justify.search" (fun () ->
      solve t ?rng (Differ { a; b; want = Tv.of_bool (not complement) }))

(* One byte per kind, none of them '\000' or '\001', the flag bytes that
   follow the last node. *)
let kind_code = function
  | Gate.Input -> 'i'
  | Gate.Const0 -> '0'
  | Gate.Const1 -> '1'
  | Gate.Buf -> 'b'
  | Gate.Not -> 'n'
  | Gate.And -> 'a'
  | Gate.Nand -> 'A'
  | Gate.Or -> 'o'
  | Gate.Nor -> 'O'
  | Gate.Xor -> 'x'
  | Gate.Xnor -> 'X'

(* Unsigned LEB128, so every field delimits itself. *)
let rec add_uint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
    add_uint buf (n lsr 7)
  end

let pair_key c ~complement a b =
  let position = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace position id i) (Circuit.inputs c);
  let number = Hashtbl.create 64 in
  let buf = Buffer.create 256 in
  (* Post-order from [a], then from [b]: a node is numbered, and its record
     written, after its fanins in pin order, so the records are in number
     order and a number is the record's place in the key. *)
  let rec visit id =
    match Hashtbl.find_opt number id with
    | Some n -> n
    | None ->
      let kind = Circuit.kind c id in
      let fanins = Array.map visit (Circuit.fanins c id) in
      let n = Hashtbl.length number in
      Hashtbl.add number id n;
      Buffer.add_char buf (kind_code kind);
      (match kind with
      | Gate.Input -> add_uint buf (Hashtbl.find position id)
      | _ ->
        add_uint buf (Array.length fanins);
        Array.iter (add_uint buf) fanins);
      n
  in
  let na = visit a in
  let nb = visit b in
  Buffer.add_char buf (if complement then '\001' else '\000');
  add_uint buf na;
  add_uint buf nb;
  Buffer.contents buf

let reachable_exhaustive c targets =
  let n = Circuit.num_inputs c in
  if n > 20 then invalid_arg "Justify.reachable_exhaustive: too many inputs";
  let found = ref false in
  for m = 0 to (1 lsl n) - 1 do
    if not !found then begin
      let vec = Array.init n (fun j -> m land (1 lsl (n - 1 - j)) <> 0) in
      let values = Eval.node_values c vec in
      if List.for_all (fun (node, want) -> values.(node) = want) targets then
        found := true
    end
  done;
  !found

type kind =
  | Input
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor

let to_string = function
  | Input -> "INPUT"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Or -> "OR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "CONST0" | "GND" | "ZERO" -> Some Const0
  | "CONST1" | "VDD" | "ONE" -> Some Const1
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "OR" -> Some Or
  | "NAND" -> Some Nand
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let min_arity = function
  | Input | Const0 | Const1 -> 0
  | Buf | Not -> 1
  | And | Or | Nand | Nor | Xor | Xnor -> 1

let max_arity = function
  | Input | Const0 | Const1 -> Some 0
  | Buf | Not -> Some 1
  | And | Or | Nand | Nor | Xor | Xnor -> None

let controlling = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const0 | Const1 | Buf | Not | Xor | Xnor -> None

let inverting = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Const0 | Const1 | Buf | And | Or | Xor -> false

let check_arity k n =
  if n < min_arity k then
    invalid_arg
      (Printf.sprintf "Gate.eval: %s needs >= %d fanins, got %d" (to_string k)
         (min_arity k) n);
  match max_arity k with
  | Some m when n > m ->
    invalid_arg
      (Printf.sprintf "Gate.eval: %s takes <= %d fanins, got %d" (to_string k)
         m n)
  | Some _ | None -> ()

let eval k inputs =
  let n = Array.length inputs in
  check_arity k n;
  match k with
  | Input -> invalid_arg "Gate.eval: Input has no logic function"
  | Const0 -> false
  | Const1 -> true
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> Array.for_all Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Or -> Array.exists Fun.id inputs
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> if b then not acc else acc) false inputs
  | Xnor ->
    not (Array.fold_left (fun acc b -> if b then not acc else acc) false inputs)

let fold_word f init inputs =
  let acc = ref init in
  for i = 0 to Array.length inputs - 1 do
    acc := f !acc inputs.(i)
  done;
  !acc

let eval_word k inputs =
  let n = Array.length inputs in
  check_arity k n;
  match k with
  | Input -> invalid_arg "Gate.eval_word: Input has no logic function"
  | Const0 -> 0L
  | Const1 -> -1L
  | Buf -> inputs.(0)
  | Not -> Int64.lognot inputs.(0)
  | And -> fold_word Int64.logand (-1L) inputs
  | Nand -> Int64.lognot (fold_word Int64.logand (-1L) inputs)
  | Or -> fold_word Int64.logor 0L inputs
  | Nor -> Int64.lognot (fold_word Int64.logor 0L inputs)
  | Xor -> fold_word Int64.logxor 0L inputs
  | Xnor -> Int64.lognot (fold_word Int64.logxor 0L inputs)

let two_input_equivalents k arity =
  match k with
  | Input | Const0 | Const1 | Buf | Not -> 0
  | And | Or | Nand | Nor | Xor | Xnor -> max 0 (arity - 1)

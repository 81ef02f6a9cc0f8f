type v = F | T | X

let of_bool b = if b then T else F
let equal (a : v) (b : v) = a = b
let known = function F | T -> true | X -> false
let lnot = function F -> T | T -> F | X -> X

let land_ a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, T -> T
  | X, (T | X) | T, X -> X

let lor_ a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, F -> F
  | X, (F | X) | F, X -> X

let lxor_ a b =
  match (a, b) with
  | X, _ | _, X -> X
  | T, T | F, F -> F
  | T, F | F, T -> T

let to_char = function F -> '0' | T -> '1' | X -> 'x'

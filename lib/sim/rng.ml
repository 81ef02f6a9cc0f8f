(* The splitmix64 state lives in 8 bytes, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne], so a draw boxes no new state. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* splitmix64 *)
let next64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = create (next64 t)

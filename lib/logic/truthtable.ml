(* Word-backed truth tables.

   The table of an n-input function is 2^n bits packed into an array of
   64-bit words: bit [m land 63] of word [m lsr 6] is the function value on
   minterm [m]. Every kernel below works a word at a time (SWAR), so the
   per-minterm cost of the resynthesis inner loop drops by up to 64x over a
   byte-and-bit representation.

   Invariant: for n < 6 the single word's bits above 2^n are zero
   ([norm] enforces this after any whole-word operation), so [equal],
   [compare] and [hash] can look at raw words. *)

type t = { n : int; words : int64 array }

let max_arity = 16

let check_arity n =
  if n < 0 || n > max_arity then
    invalid_arg (Printf.sprintf "Truthtable: arity %d out of [0, %d]" n max_arity)

let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Live bits of the (single) word when n < 6; all-ones otherwise. *)
let[@inline] tail_mask n =
  if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

(* Standard simulation patterns: bit [j] of [sim_patterns.(p)] is bit [p] of
   [j] — the value variable "index bit p" takes across one 64-minterm block.
   These are the classic bit-parallel input words of 64-way logic
   simulation, and double as the delta-swap masks below. *)
let sim_patterns =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let sim_pattern p =
  if p < 0 || p > 5 then invalid_arg "Truthtable.sim_pattern: bit out of [0, 5]";
  sim_patterns.(p)

(* [period_masks.(p)]: bits whose in-word index has bit [p] {e clear} — the
   complement of [sim_patterns.(p)]. *)
let period_masks = Array.map Int64.lognot sim_patterns

let make n = { n; words = Array.make (nwords n) 0L }
let arity t = t.n
let size t = 1 lsl t.n

let norm t =
  if t.n < 6 then t.words.(0) <- Int64.logand t.words.(0) (tail_mask t.n);
  t

let get t m =
  if m < 0 || m >= size t then invalid_arg "Truthtable.get: minterm out of range";
  Int64.logand (Int64.shift_right_logical t.words.(m lsr 6) (m land 63)) 1L <> 0L

let set_mut t m v =
  let w = m lsr 6 in
  let bit = Int64.shift_left 1L (m land 63) in
  t.words.(w) <-
    (if v then Int64.logor t.words.(w) bit
     else Int64.logand t.words.(w) (Int64.lognot bit))

let create n f =
  check_arity n;
  let t = make n in
  for m = 0 to size t - 1 do
    if f m then set_mut t m true
  done;
  t

let set t m v =
  if m < 0 || m >= size t then invalid_arg "Truthtable.set: minterm out of range";
  let fresh = { n = t.n; words = Array.copy t.words } in
  set_mut fresh m v;
  fresh

let const n v =
  check_arity n;
  if v then { n; words = Array.make (nwords n) (tail_mask n) } else make n

let var n i =
  if i < 1 || i > n then invalid_arg "Truthtable.var: variable out of range";
  check_arity n;
  let t = make n in
  let p = n - i in
  if p < 6 then begin
    let patt = Int64.logand sim_patterns.(p) (tail_mask n) in
    Array.fill t.words 0 (Array.length t.words) patt
  end
  else begin
    let wb = p - 6 in
    for w = 0 to Array.length t.words - 1 do
      if w land (1 lsl wb) <> 0 then t.words.(w) <- -1L
    done
  end;
  t

let equal a b =
  a.n = b.n
  &&
  let rec go i = i < 0 || (Int64.equal a.words.(i) b.words.(i) && go (i - 1)) in
  go (Array.length a.words - 1)

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= Array.length a.words then 0
      else
        let c = Int64.unsigned_compare a.words.(i) b.words.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* Splitmix-style word mixer folded over the packed words — no intermediate
   string (or any other allocation) on the hashing path. *)
let hash t =
  let h = ref (Int64.of_int ((t.n * 0x9E3779B9) + 1)) in
  for i = 0 to Array.length t.words - 1 do
    let x = Int64.logxor !h t.words.(i) in
    let x = Int64.mul x 0xBF58476D1CE4E5B9L in
    h := Int64.logxor x (Int64.shift_right_logical x 29)
  done;
  Int64.to_int !h land max_int

let of_minterms n ms =
  check_arity n;
  let t = make n in
  List.iter
    (fun m ->
      if m < 0 || m >= size t then invalid_arg "Truthtable.of_minterms: out of range";
      set_mut t m true)
    ms;
  t

let of_words n words =
  check_arity n;
  if Array.length words <> nwords n then
    invalid_arg "Truthtable.of_words: wrong word count";
  norm { n; words = Array.copy words }

let words t = Array.copy t.words

(* Index (0-based) of the lowest set bit: the classic de Bruijn multiply
   (isolate with [x land -x], multiply, table-index on the top 6 bits). *)
let debruijn_table =
  [|
    0; 1; 2; 53; 3; 7; 54; 27; 4; 38; 41; 8; 34; 55; 48; 28; 62; 5; 39; 46;
    44; 42; 22; 9; 24; 35; 59; 56; 49; 18; 29; 11; 63; 52; 6; 26; 37; 40;
    33; 47; 61; 45; 43; 21; 23; 58; 17; 10; 51; 25; 36; 32; 60; 20; 57; 16;
    50; 31; 19; 15; 30; 14; 13; 12;
  |]

let lowest_bit x =
  debruijn_table.(Int64.to_int
                    (Int64.shift_right_logical
                       (Int64.mul (Int64.logand x (Int64.neg x)) 0x022FDD63CC95386DL)
                       58))

let popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* Index of the highest set bit: smear it rightwards, then count. *)
let highest_bit x =
  let x = Int64.logor x (Int64.shift_right_logical x 1) in
  let x = Int64.logor x (Int64.shift_right_logical x 2) in
  let x = Int64.logor x (Int64.shift_right_logical x 4) in
  let x = Int64.logor x (Int64.shift_right_logical x 8) in
  let x = Int64.logor x (Int64.shift_right_logical x 16) in
  let x = Int64.logor x (Int64.shift_right_logical x 32) in
  popcount64 x - 1

let minterms t =
  let acc = ref [] in
  for w = Array.length t.words - 1 downto 0 do
    let base = w lsl 6 in
    let x = ref t.words.(w) in
    let local = ref [] in
    while not (Int64.equal !x 0L) do
      local := (base + lowest_bit !x) :: !local;
      x := Int64.logand !x (Int64.sub !x 1L)
    done;
    List.iter (fun m -> acc := m :: !acc) !local
  done;
  !acc

let popcount t =
  let k = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    k := !k + popcount64 t.words.(w)
  done;
  !k

let is_const t =
  let full = tail_mask t.n in
  let rec scan i zero ones =
    if i < 0 then if zero then Some false else if ones then Some true else None
    else begin
      let w = t.words.(i) in
      let zero = zero && Int64.equal w 0L in
      let ones = ones && Int64.equal w full in
      if zero || ones then scan (i - 1) zero ones else None
    end
  in
  scan (Array.length t.words - 1) true true

let map2 f a b =
  if a.n <> b.n then invalid_arg "Truthtable: arity mismatch";
  let t = make a.n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- f a.words.(i) b.words.(i)
  done;
  norm t

let lnot a =
  let t = make a.n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Int64.lognot a.words.(i)
  done;
  norm t

let land_ = map2 Int64.logand
let lor_ = map2 Int64.logor
let lxor_ = map2 Int64.logxor

(* Pack the bits of [x] whose in-word index has bit [b] clear (already
   masked to those positions) into the low 32 bits: repeated
   shift-or-mask doubling, one step per level between [2^b] and 32. *)
let compact_low x b =
  let x = ref x in
  let s = ref (1 lsl b) in
  let k = ref b in
  while !s < 32 do
    x :=
      Int64.logand
        (Int64.logor !x (Int64.shift_right_logical !x !s))
        period_masks.(!k + 1);
    s := !s lsl 1;
    incr k
  done;
  !x

let cofactor t ~var v =
  if var < 1 || var > t.n then invalid_arg "Truthtable.cofactor: variable out of range";
  let n' = t.n - 1 in
  let r = make n' in
  (* number of variables below x_var, i.e. the index-bit position fixed *)
  let b = t.n - var in
  if b >= 6 then begin
    (* The fixed bit selects whole words: gather every other 2^{b-6}-word
       block. In-word layout is untouched. *)
    let wb = b - 6 in
    let low = (1 lsl wb) - 1 in
    let sel = if v then 1 lsl wb else 0 in
    for rw = 0 to Array.length r.words - 1 do
      let sw = ((rw lsr wb) lsl (wb + 1)) lor sel lor (rw land low) in
      r.words.(rw) <- t.words.(sw)
    done
  end
  else begin
    (* The fixed bit lives inside each word: mask the kept 2^b-bit blocks
       and compact them into the low half; two source words feed one
       result word. *)
    let bsz = 1 lsl b in
    let half w =
      let x = if v then Int64.shift_right_logical w bsz else w in
      compact_low (Int64.logand x period_masks.(b)) b
    in
    if t.n <= 6 then r.words.(0) <- Int64.logand (half t.words.(0)) (tail_mask n')
    else
      for rw = 0 to Array.length r.words - 1 do
        r.words.(rw) <-
          Int64.logor
            (half t.words.(2 * rw))
            (Int64.shift_left (half t.words.((2 * rw) + 1)) 32)
      done
  end;
  r

(* The two kernels below summarise a set of minterms without listing it:
   the OR [bits] of its non-empty words says which in-word index bits take
   which values, and the AND [iand] / OR [ior] of those words' indices does
   the same for the index bits that select words. Variable [x_i] is index
   bit [n - i] and bit [i - 1] of the returned masks. *)

(* Does some member have index bit [p] = 0? *)
let[@inline] some_at0 bits iand p =
  if p < 6 then not (Int64.equal (Int64.logand bits period_masks.(p)) 0L)
  else iand land (1 lsl (p - 6)) = 0

(* Does some member have index bit [p] = 1? *)
let[@inline] some_at1 bits ior p =
  if p < 6 then not (Int64.equal (Int64.logand bits sim_patterns.(p)) 0L)
  else ior land (1 lsl (p - 6)) <> 0

let literal_factors t v =
  let n = t.n in
  let full = tail_mask n in
  let bits = ref 0L and iand = ref (-1) and ior = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    let x = if v then t.words.(w) else Int64.logand (Int64.lognot t.words.(w)) full in
    if not (Int64.equal x 0L) then begin
      bits := Int64.logor !bits x;
      iand := !iand land w;
      ior := !ior lor w
    end
  done;
  let r = ref 0 in
  for p = 0 to n - 1 do
    if not (some_at0 !bits !iand p && some_at1 !bits !ior p) then
      r := !r lor (1 lsl (n - 1 - p))
  done;
  !r

let unate_splits t ~var ~positive =
  if var < 1 || var > t.n then invalid_arg "Truthtable.unate_splits: variable out of range";
  let n = t.n in
  let py = n - var in
  (* Pair every minterm m with x_var = 0 with m + 2^py: in-word, by a shift
     within the word; otherwise, word [w] with word [w lor stride]. *)
  let d = if py < 6 then 1 lsl py else 0 in
  let m = if py < 6 then period_masks.(py) else -1L in
  let stride = if py < 6 then 0 else 1 lsl (py - 6) in
  (* [a]: the violations that rule out x = 0 as a split value; [b]: those
     that rule out x = 1. *)
  let a_bits = ref 0L and a_iand = ref (-1) and b_bits = ref 0L and b_ior = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    if w land stride = 0 then begin
      let x = t.words.(w) in
      let lo = Int64.logand x m in
      let hi =
        if py < 6 then Int64.logand (Int64.shift_right_logical x d) m
        else t.words.(w lor stride)
      in
      (* [down]: t falls as x_var rises (not positive unate); [up]: it rises
         (not negative unate). *)
      let down = Int64.logand lo (Int64.lognot hi) in
      let up = Int64.logand hi (Int64.lognot lo) in
      let a = if positive then down else up in
      let b = if positive then up else down in
      if not (Int64.equal a 0L) then begin
        a_bits := Int64.logor !a_bits a;
        a_iand := !a_iand land w
      end;
      if not (Int64.equal b 0L) then begin
        b_bits := Int64.logor !b_bits b;
        b_ior := !b_ior lor w
      end
    end
  done;
  let r = ref 0 in
  for p = 0 to n - 1 do
    if p <> py && not (some_at0 !a_bits !a_iand p || some_at1 !b_bits !b_ior p) then
      r := !r lor (1 lsl (n - 1 - p))
  done;
  !r

let depends_on t i = not (equal (cofactor t ~var:i true) (cofactor t ~var:i false))

let support t =
  let acc = ref [] in
  for i = t.n downto 1 do
    if depends_on t i then acc := i :: !acc
  done;
  !acc

(* Exchange index-bit positions [a < b] of the packed table in place:
   afterwards bit [swap_ab m] holds what bit [m] held. Three regimes —
   both bits in-word (one delta swap per word), both selecting words
   (swap whole words), and mixed (delta swap across a word pair). *)
let swap_index_bits words a b =
  let nw = Array.length words in
  if b < 6 then begin
    let d = (1 lsl b) - (1 lsl a) in
    (* pair lows: in-word index has bit a set, bit b clear *)
    let m = Int64.logand sim_patterns.(a) period_masks.(b) in
    for w = 0 to nw - 1 do
      let x = words.(w) in
      let t = Int64.logand (Int64.logxor x (Int64.shift_right_logical x d)) m in
      words.(w) <- Int64.logxor (Int64.logxor x t) (Int64.shift_left t d)
    done
  end
  else if a >= 6 then begin
    let ab = 1 lsl (a - 6) and bb = 1 lsl (b - 6) in
    for w = 0 to nw - 1 do
      if w land ab <> 0 && w land bb = 0 then begin
        let w' = w - ab + bb in
        let tmp = words.(w) in
        words.(w) <- words.(w');
        words.(w') <- tmp
      end
    done
  end
  else begin
    let d = 1 lsl a in
    let stride = 1 lsl (b - 6) in
    for w0 = 0 to nw - 1 do
      if w0 land stride = 0 then begin
        let w1 = w0 lor stride in
        let x0 = words.(w0) and x1 = words.(w1) in
        let t =
          Int64.logand (Int64.logxor (Int64.shift_right_logical x0 d) x1) period_masks.(a)
        in
        words.(w1) <- Int64.logxor x1 t;
        words.(w0) <- Int64.logxor x0 (Int64.shift_left t d)
      end
    done
  end

let permute t pi =
  if Array.length pi <> t.n then invalid_arg "Truthtable.permute: bad permutation size";
  let seen = Array.make (t.n + 1) false in
  Array.iter
    (fun v ->
      if v < 1 || v > t.n || seen.(v) then
        invalid_arg "Truthtable.permute: not a permutation";
      seen.(v) <- true)
    pi;
  let n = t.n in
  let words = Array.copy t.words in
  (* Result index bit p must read source index bit target.(p); realise the
     bit permutation as at most n-1 index-bit swaps (selection order), each
     a word-level delta swap. *)
  let target = Array.make (max n 1) 0 in
  Array.iteri (fun j v -> target.(n - 1 - j) <- n - v) pi;
  let state = Array.init (max n 1) (fun p -> p) in
  for p = 0 to n - 1 do
    if state.(p) <> target.(p) then begin
      let r = ref (p + 1) in
      while state.(!r) <> target.(p) do incr r done;
      swap_index_bits words p !r;
      let tmp = state.(p) in
      state.(p) <- state.(!r);
      state.(!r) <- tmp
    end
  done;
  { n; words }

let interval n ~lo ~hi =
  check_arity n;
  if lo < 0 || hi >= 1 lsl n || lo > hi then invalid_arg "Truthtable.interval: bad bounds";
  let t = make n in
  let wl = lo lsr 6 and wh = hi lsr 6 in
  for w = wl to wh do
    let lo_b = if w = wl then lo land 63 else 0 in
    let hi_b = if w = wh then hi land 63 else 63 in
    let upper =
      if hi_b = 63 then -1L else Int64.sub (Int64.shift_left 1L (hi_b + 1)) 1L
    in
    let lower = Int64.sub (Int64.shift_left 1L lo_b) 1L in
    t.words.(w) <- Int64.logand upper (Int64.lognot lower)
  done;
  t

let as_interval t =
  (* lowest and highest set bits by word scan; contiguity then reduces to a
     single popcount — no minterm list is ever materialised *)
  let nw = Array.length t.words in
  let rec first i = if i >= nw then None else if Int64.equal t.words.(i) 0L then first (i + 1) else Some i in
  match first 0 with
  | None -> None
  | Some wl ->
    let rec last i = if Int64.equal t.words.(i) 0L then last (i - 1) else i in
    let wh = last (nw - 1) in
    let lo = (wl lsl 6) + lowest_bit t.words.(wl) in
    let hi = (wh lsl 6) + highest_bit t.words.(wh) in
    if popcount t = hi - lo + 1 then Some (lo, hi) else None

let eval t inputs =
  if Array.length inputs <> t.n then invalid_arg "Truthtable.eval: arity mismatch";
  let m = ref 0 in
  for j = 0 to t.n - 1 do
    if inputs.(j) then m := !m lor (1 lsl (t.n - 1 - j))
  done;
  get t !m

let to_string t =
  (* Same format as the historic byte-backed dump: "<n>:" then the table
     bytes in hex, most significant minterm first. *)
  let nbytes = max 1 (((1 lsl t.n) + 7) / 8) in
  let buf = Buffer.create (2 * nbytes) in
  Buffer.add_string buf (Printf.sprintf "%d:" t.n);
  for i = nbytes - 1 downto 0 do
    let byte =
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical t.words.(i lsr 3) ((i land 7) * 8)) 0xFFL)
    in
    Buffer.add_string buf (Printf.sprintf "%02x" byte)
  done;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

type t = { init : bool; final : bool; hf : bool }

let stable v = { init = v; final = v; hf = true }
let rising = { init = false; final = true; hf = true }
let falling = { init = true; final = false; hf = true }
let has_transition w = w.init <> w.final

(* AND-family hazard rule. An input that is stably at the controlling value
   and hazard-free masks everything. Otherwise the output is hazard-free only
   when every input is hazard-free and rising and falling inputs do not mix
   (a rising and a falling input can overlap at the non-controlling value and
   produce a glitch). *)
let and_like inputs =
  let init = Array.for_all (fun w -> w.init) inputs in
  let final = Array.for_all (fun w -> w.final) inputs in
  let masked =
    Array.exists (fun w -> w.hf && not w.init && not w.final) inputs
  in
  let hf =
    masked
    || (Array.for_all (fun w -> w.hf) inputs
       && not
            (Array.exists (fun w -> w.init && not w.final) inputs
            && Array.exists (fun w -> (not w.init) && w.final) inputs))
  in
  { init; final; hf }

let or_like inputs =
  let init = Array.exists (fun w -> w.init) inputs in
  let final = Array.exists (fun w -> w.final) inputs in
  let masked = Array.exists (fun w -> w.hf && w.init && w.final) inputs in
  let hf =
    masked
    || (Array.for_all (fun w -> w.hf) inputs
       && not
            (Array.exists (fun w -> w.init && not w.final) inputs
            && Array.exists (fun w -> (not w.init) && w.final) inputs))
  in
  { init; final; hf }

(* XOR has no controlling value: any input hazard reaches the output, and two
   transitioning inputs can always glitch. *)
let xor_like inputs =
  let fold sel = Array.fold_left (fun acc w -> acc <> sel w) false inputs in
  let init = fold (fun w -> w.init) in
  let final = fold (fun w -> w.final) in
  let transitions =
    Array.fold_left (fun k w -> if has_transition w then k + 1 else k) 0 inputs
  in
  let hf = Array.for_all (fun w -> w.hf) inputs && transitions <= 1 in
  { init; final; hf }

let invert w = { init = not w.init; final = not w.final; hf = w.hf }

let eval kind inputs =
  match kind with
  | Gate.Input -> invalid_arg "Wave.eval: Input"
  | Gate.Const0 -> stable false
  | Gate.Const1 -> stable true
  | Gate.Buf -> inputs.(0)
  | Gate.Not -> invert inputs.(0)
  | Gate.And -> and_like inputs
  | Gate.Nand -> invert (and_like inputs)
  | Gate.Or -> or_like inputs
  | Gate.Nor -> invert (or_like inputs)
  | Gate.Xor -> xor_like inputs
  | Gate.Xnor -> invert (xor_like inputs)

let simulate cmp ~v1 ~v2 =
  let n_pi = Array.length (Compiled.inputs cmp) in
  if Array.length v1 <> n_pi || Array.length v2 <> n_pi then
    invalid_arg "Wave.simulate: vector length mismatch";
  let waves = Array.make (Compiled.size cmp) (stable false) in
  Array.iteri
    (fun i pi -> waves.(pi) <- { init = v1.(i); final = v2.(i); hf = true })
    (Compiled.inputs cmp);
  Array.iter
    (fun id ->
      match Compiled.kind cmp id with
      | Gate.Input -> ()
      | k ->
        let fins = Compiled.fanins cmp id in
        waves.(id) <- eval k (Array.map (fun f -> waves.(f)) fins))
    (Compiled.order cmp);
  waves

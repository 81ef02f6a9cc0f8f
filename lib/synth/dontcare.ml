let observed batches inputs =
  let k = Array.length inputs in
  if k > 16 then invalid_arg "Dontcare.observed: cut too wide";
  let seen = Array.make (1 lsl k) false in
  Array.iter
    (fun words ->
      for bit = 0 to 63 do
        let m = ref 0 in
        for j = 0 to k - 1 do
          let w = Bytes.get_int64_ne words (8 * inputs.(j)) in
          if Int64.logand (Int64.shift_right_logical w bit) 1L = 1L then
            m := !m lor (1 lsl (k - 1 - j))
        done;
        seen.(!m) <- true
      done)
    batches;
  Truthtable.create k (fun m -> seen.(m))

let prove_unreachable c inputs minterms =
  let k = Array.length inputs in
  let justify = Justify.create c in
  List.for_all
    (fun m ->
      let targets =
        Array.to_list
          (Array.mapi (fun j input -> (input, m land (1 lsl (k - 1 - j)) <> 0)) inputs)
      in
      match Justify.run justify targets with
      | Justify.Unsat -> true
      | Justify.Sat _ | Justify.Unknown -> false)
    minterms

exception Overflow

let add_checked a b =
  let s = a + b in
  if s < 0 then raise Overflow else s

let labels c =
  let lab = Array.make (Circuit.size c) 0 in
  let order = Circuit.topo_order c in
  Array.iter
    (fun id ->
      match Circuit.kind c id with
      | Gate.Input -> lab.(id) <- 1
      | Gate.Const0 | Gate.Const1 -> lab.(id) <- 0
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        lab.(id) <-
          Array.fold_left
            (fun acc f -> add_checked acc lab.(f))
            0 (Circuit.fanins c id))
    order;
  lab

let total c =
  let lab = labels c in
  Array.fold_left (fun acc o -> add_checked acc lab.(o)) 0 (Circuit.outputs c)

let enumerate ?(cap = 1_000_000) c =
  let acc = ref [] in
  let count = ref 0 in
  (* Walk backwards from each output designation to the inputs. *)
  let rec descend suffix id =
    let suffix = id :: suffix in
    match Circuit.kind c id with
    | Gate.Input ->
      incr count;
      if !count > cap then failwith "Paths.enumerate: cap exceeded";
      acc := Array.of_list suffix :: !acc
    | Gate.Const0 | Gate.Const1 -> ()
    | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
    | Gate.Xor | Gate.Xnor ->
      Array.iter (fun f -> descend suffix f) (Circuit.fanins c id)
  in
  Array.iter (fun o -> descend [] o) (Circuit.outputs c);
  List.rev !acc

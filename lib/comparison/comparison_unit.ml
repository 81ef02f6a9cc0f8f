type built = {
  circuit : Circuit.t;
  input_paths : int array;
  gates2 : int;
  depth : int;
}

let free_variable_count ~n ~lo ~hi =
  let rec go j =
    if j >= n then j
    else begin
      let bit v = (v lsr (n - 1 - j)) land 1 in
      if bit lo = bit hi then go (j + 1) else j
    end
  in
  go 0

type term = C1 | Node of int

(* >= L chain over positions [first..n-1]: AND when the bound bit is 1, OR
   when it is 0; built from the LSB so constant absorption reproduces the
   paper's omitted-gate special cases. [literal] maps a position to the node
   feeding the chain (the raw input for >=, its complement for <=). *)
let chain c ~n ~first ~bound ~and_bit ~literal =
  let rec go p acc =
    if p < first then acc
    else begin
      let bit = (bound lsr (n - 1 - p)) land 1 in
      let acc =
        if bit = and_bit then
          match acc with
          | C1 -> Node (literal p)
          | Node t -> Node (Circuit.add_gate c Gate.And [| literal p; t |])
        else
          match acc with
          | C1 -> C1
          | Node t -> Node (Circuit.add_gate c Gate.Or [| literal p; t |])
      in
      go (p - 1) acc
    end
  in
  go (n - 1) C1

(* Merge runs of same-kind And/Or 2-input chain gates into k-input gates. *)
let merge_chains c =
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun g ->
        if Circuit.is_alive c g then
          match Circuit.kind c g with
          | (Gate.And | Gate.Or) as k ->
            let fins = Circuit.fanins c g in
            let absorb f =
              Circuit.is_alive c f
              && Circuit.kind c f = k
              && (not (Circuit.is_output c f))
              && Circuit.fanout_degree c f = 1
            in
            if Array.exists absorb fins then begin
              let expanded =
                Array.to_list fins
                |> List.concat_map (fun f ->
                       if absorb f then Array.to_list (Circuit.fanins c f)
                       else [ f ])
              in
              let orphans = Array.to_list fins |> List.filter absorb in
              Circuit.set_fanins c g (Array.of_list expanded);
              List.iter (fun f -> Circuit.delete c f) orphans;
              changed := true
            end
          | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not
          | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
      (Circuit.topo_order c)
  done

let paths_to_output c =
  let out = (Circuit.outputs c).(0) in
  let cnt = Array.make (Circuit.size c) 0 in
  cnt.(out) <- 1;
  let order = Circuit.topo_order c in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if id <> out then
      cnt.(id) <- List.fold_left (fun acc g -> acc + cnt.(g)) 0 (Circuit.fanouts c id)
  done;
  cnt

let check_spec fn ~n (s : Comparison_fn.spec) =
  if Array.length s.Comparison_fn.perm <> n then
    invalid_arg (fn ^ ": spec arity mismatch");
  if s.Comparison_fn.lo > s.Comparison_fn.hi || s.Comparison_fn.lo < 0
     || s.Comparison_fn.hi >= 1 lsl n
  then invalid_arg (fn ^ ": bad bounds")

(* [build]'s gate count and input paths, counted from the spec. [chain]
   below skips the positions after q (they fold into its constant), starts
   with the literal at q and adds one gate per position from q - 1 down to
   f. Merging keeps the count: a k-input gate counts k - 1. *)
let cost ~n (s : Comparison_fn.spec) =
  check_spec "Comparison_unit.cost" ~n s;
  let lo = s.Comparison_fn.lo and hi = s.Comparison_fn.hi in
  let bit v p = (v lsr (n - 1 - p)) land 1 in
  let f = free_variable_count ~n ~lo ~hi in
  let ones_core = (1 lsl (n - f)) - 1 in
  let paths = Array.make n 0 in
  let on_path p =
    let j = s.Comparison_fn.perm.(p) - 1 in
    paths.(j) <- paths.(j) + 1
  in
  for p = 0 to f - 1 do on_path p done;
  let gates = ref 0 and terms = ref f in
  let chain ~bound ~and_bit =
    let q = ref (n - 1) in
    while bit bound !q <> and_bit do decr q done;
    gates := !gates + (!q - f);
    for p = f to !q do on_path p done;
    incr terms
  in
  if lo land ones_core <> 0 then chain ~bound:lo ~and_bit:1;
  if hi land ones_core <> ones_core then chain ~bound:hi ~and_bit:0;
  (!gates + max 0 (!terms - 1), paths)

let build ?(merge = true) ~n (s : Comparison_fn.spec) =
  check_spec "Comparison_unit.build" ~n s;
  let c = Circuit.create ~name:"comparison_unit" () in
  let inputs =
    Array.init n (fun j -> Circuit.add_input ~name:(Printf.sprintf "y%d" (j + 1)) c)
  in
  let input_of_pos j = inputs.(s.Comparison_fn.perm.(j) - 1) in
  let not_cache = Hashtbl.create 8 in
  let negate id =
    match Hashtbl.find_opt not_cache id with
    | Some t -> t
    | None ->
      let t = Circuit.add_gate c Gate.Not [| id |] in
      Hashtbl.add not_cache id t;
      t
  in
  let lo = s.Comparison_fn.lo and hi = s.Comparison_fn.hi in
  let f = free_variable_count ~n ~lo ~hi in
  let ones_core = (1 lsl (n - f)) - 1 in
  let lo_core = lo land ones_core and hi_core = hi land ones_core in
  let terms = ref [] in
  (* Free variables feed the output AND directly (Sec. 3.2.1). *)
  for j = 0 to f - 1 do
    let x = input_of_pos j in
    let bit = (lo lsr (n - 1 - j)) land 1 in
    terms := (if bit = 1 then x else negate x) :: !terms
  done;
  (* >= L_F chain, omitted when trivial (Sec. 3.2.2). *)
  if lo_core <> 0 then begin
    match chain c ~n ~first:f ~bound:lo ~and_bit:1 ~literal:input_of_pos with
    | C1 -> assert false
    | Node t -> terms := t :: !terms
  end;
  (* <= U_F chain over complemented inputs, omitted when trivial. *)
  if hi_core <> ones_core then begin
    match
      chain c ~n ~first:f ~bound:hi ~and_bit:0 ~literal:(fun p ->
          negate (input_of_pos p))
    with
    | C1 -> assert false
    | Node t -> terms := t :: !terms
  end;
  let out =
    match List.rev !terms with
    | [] -> Circuit.add_const c true
    | [ t ] -> t
    | ts -> Circuit.add_gate c Gate.And (Array.of_list ts)
  in
  let out =
    if s.Comparison_fn.complemented then Circuit.add_gate c Gate.Not [| out |]
    else out
  in
  Circuit.mark_output ~name:"f" c out;
  ignore (Circuit.sweep c);
  if merge then merge_chains c;
  let cnt = paths_to_output c in
  let input_paths = Array.map (fun id -> cnt.(id)) inputs in
  {
    circuit = c;
    input_paths;
    gates2 = Circuit.two_input_gate_count c;
    depth = Levelize.depth_logic c;
  }

let build_interval ?merge ~lo ~hi n =
  let spec =
    {
      Comparison_fn.perm = Array.init n (fun i -> i + 1);
      lo;
      hi;
      complemented = false;
    }
  in
  build ?merge ~n spec

let input_paths_of c =
  let cnt = paths_to_output c in
  Array.map (fun id -> cnt.(id)) (Circuit.inputs c)

let of_circuit c =
  if Circuit.num_outputs c <> 1 then
    invalid_arg "Comparison_unit.of_circuit: need a single output";
  {
    circuit = c;
    input_paths = input_paths_of c;
    gates2 = Circuit.two_input_gate_count c;
    depth = Levelize.depth_logic c;
  }

let verify ~n s built =
  let expected = Comparison_fn.spec_table n s in
  let actual = Eval.output_table built.circuit 0 in
  Truthtable.equal expected actual

let describe b =
  let c = b.circuit in
  let buf = Buffer.create 256 in
  let name id =
    match Circuit.node_name c id with
    | Some s -> s
    | None -> Printf.sprintf "n%d" id
  in
  Array.iter
    (fun id ->
      match Circuit.kind c id with
      | Gate.Input -> ()
      | k ->
        let args =
          Circuit.fanins c id |> Array.to_list |> List.map name
          |> String.concat ", "
        in
        Buffer.add_string buf
          (Printf.sprintf "  %s = %s(%s)%s\n" (name id) (Gate.to_string k) args
             (if Circuit.is_output c id then "   <- output" else "")))
    (Circuit.topo_order c);
  Buffer.add_string buf
    (Printf.sprintf "  gates(2-input eq.) = %d, depth = %d, input paths = [%s]\n"
       b.gates2 b.depth
       (String.concat "; " (Array.to_list (Array.map string_of_int b.input_paths))));
  Buffer.contents buf

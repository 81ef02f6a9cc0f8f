type cover = {
  specs : Comparison_fn.spec list;
  complemented : bool;
}

(* Maximal runs of consecutive minterms, as (lo, hi) pairs. *)
let runs ms =
  let rec go acc current = function
    | [] -> ( match current with None -> List.rev acc | Some r -> List.rev (r :: acc))
    | m :: rest -> (
      match current with
      | None -> go acc (Some (m, m)) rest
      | Some (lo, hi) ->
        if m = hi + 1 then go acc (Some (lo, m)) rest
        else go ((lo, hi) :: acc) (Some (m, m)) rest)
  in
  go [] None ms

let factorial n =
  let rec f acc k = if k <= 1 then acc else f (acc * k) (k - 1) in
  f 1 n

let rec permutations = function
  | [] -> Seq.return []
  | l ->
    List.to_seq l
    |> Seq.concat_map (fun x ->
           Seq.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) l)))

let evaluate f perm =
  let permuted = Truthtable.permute f perm in
  let on_runs = runs (Truthtable.minterms permuted) in
  let off_runs = runs (Truthtable.minterms (Truthtable.lnot permuted)) in
  if List.length on_runs <= List.length off_runs then (false, on_runs)
  else (true, off_runs)

let find ?(budget = 200) ?(max_units = 3) rng f =
  let n = Truthtable.arity f in
  match Truthtable.is_const f with
  | Some _ -> None
  | None ->
    let best = ref None in
    let consider perm =
      let complemented, rs = evaluate f perm in
      let count = List.length rs in
      match !best with
      | Some (_, _, c) when c <= count -> ()
      | Some _ | None -> best := Some (perm, (complemented, rs), count)
    in
    if n <= 8 && factorial n <= budget then
      Seq.iter
        (fun p -> consider (Array.of_list p))
        (permutations (List.init n (fun i -> i + 1)))
    else begin
      let identity = Array.init n (fun i -> i + 1) in
      consider identity;
      for _ = 2 to budget do
        let p = Array.copy identity in
        Rng.shuffle rng p;
        consider p
      done
    end;
    (match !best with
    | Some (perm, (complemented, rs), count) when count <= max_units ->
      Some
        {
          specs =
            List.map
              (fun (lo, hi) -> { Comparison_fn.perm; lo; hi; complemented = false })
              rs;
          complemented;
        }
    | Some _ | None -> None)

(* Copy a built unit into [dst], sharing the primary inputs. *)
let import dst inputs unit_circuit =
  let remap = Array.make (Circuit.size unit_circuit) (-1) in
  Array.iteri
    (fun j pi -> remap.(pi) <- inputs.(j))
    (Circuit.inputs unit_circuit);
  Array.iter
    (fun id ->
      match Circuit.kind unit_circuit id with
      | Gate.Input -> ()
      | Gate.Const0 -> remap.(id) <- Circuit.add_const dst false
      | Gate.Const1 -> remap.(id) <- Circuit.add_const dst true
      | k ->
        let fins = Array.map (fun f -> remap.(f)) (Circuit.fanins unit_circuit id) in
        remap.(id) <- Circuit.add_gate dst k fins)
    (Circuit.topo_order unit_circuit);
  remap.((Circuit.outputs unit_circuit).(0))

let build ?(merge = true) ~n cover =
  if cover.specs = [] then invalid_arg "Multi_unit.build: empty cover";
  let c = Circuit.create ~name:"multi_comparison_unit" () in
  let inputs =
    Array.init n (fun j -> Circuit.add_input ~name:(Printf.sprintf "y%d" (j + 1)) c)
  in
  let outs =
    List.map
      (fun spec ->
        let b = Comparison_unit.build ~merge ~n spec in
        import c inputs b.Comparison_unit.circuit)
      cover.specs
  in
  let outs = List.sort_uniq compare outs in
  let out =
    match outs with
    | [ single ] -> if cover.complemented then Circuit.add_gate c Gate.Not [| single |] else single
    | several ->
      let kind = if cover.complemented then Gate.Nor else Gate.Or in
      Circuit.add_gate c kind (Array.of_list several)
  in
  Circuit.mark_output ~name:"f" c out;
  ignore (Circuit.sweep c);
  Comparison_unit.of_circuit c

let verify ~n f built =
  Truthtable.equal f (Eval.output_table built.Comparison_unit.circuit 0)
  && Truthtable.arity f = n

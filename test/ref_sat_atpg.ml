(* Reference SAT fault miter: the formula the library decided before it
   gave each fault a solver over the fault's cone of influence. The whole
   good circuit is encoded; the fanout cone of the fault site is encoded
   again as a faulty copy whose fanins outside the cone read the good
   copy's literals; the miter clause is the disjunction of the XORs of every
   reachable output pair. No D-chain clauses, no cone of influence, and its
   own gate-kind encoder, so the differential tests compare two encodings
   that share nothing but [Cnf]'s hashed connectives and the solver. The
   library once shared one solver across a fault list and retired each
   miter behind an activation literal; the verdict of a miter does not
   depend on that, so this reference gives every fault a fresh solver. *)

type verdict =
  | Test of bool array
  | Redundant
  | Unknown

let gate env kind args =
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Ref_sat_atpg.gate: Input"
  | Gate.Const0 -> Cnf.lfalse env
  | Gate.Const1 -> Cnf.ltrue env
  | Gate.Buf -> args.(0)
  | Gate.Not -> Sat.neg args.(0)
  | Gate.And -> Cnf.and_lits env args
  | Gate.Or -> Cnf.or_lits env args
  | Gate.Nand -> Sat.neg (Cnf.and_lits env args)
  | Gate.Nor -> Sat.neg (Cnf.or_lits env args)
  | Gate.Xor -> Cnf.xor_lits env args
  | Gate.Xnor -> Sat.neg (Cnf.xor_lits env args)

let fanout_cone c root =
  let mask = Array.make (Circuit.size c) false in
  let rec visit id =
    if not mask.(id) then begin
      mask.(id) <- true;
      List.iter visit (Circuit.fanouts c id)
    end
  in
  visit root;
  mask

let run ?(budget = 100_000) c (f : Fault.t) =
  let sat = Sat.create () in
  let env = Cnf.create sat in
  let order = Circuit.topo_order c in
  let pi_vars = Array.map (fun _ -> Sat.new_var sat) (Circuit.inputs c) in
  let good = Array.make (Circuit.size c) Cnf.no_lit in
  Array.iteri (fun j id -> good.(id) <- Sat.lit pi_vars.(j)) (Circuit.inputs c);
  Array.iter
    (fun id ->
      match Circuit.kind c id with
      | Gate.Input -> ()
      | kind ->
        good.(id) <- gate env kind (Array.map (fun x -> good.(x)) (Circuit.fanins c id)))
    order;
  let root = match f.Fault.site with Fault.Stem u -> u | Fault.Branch (g, _) -> g in
  let mask = fanout_cone c root in
  let stuck = if f.Fault.stuck then Cnf.ltrue env else Cnf.lfalse env in
  let faulty = Array.make (Circuit.size c) Cnf.no_lit in
  Array.iter
    (fun id ->
      if mask.(id) then
        faulty.(id) <-
          (match f.Fault.site with
          | Fault.Stem u when u = id -> stuck
          | Fault.Stem _ | Fault.Branch _ -> (
            match Circuit.kind c id with
            | Gate.Input -> good.(id)
            | kind ->
              let args =
                Array.mapi
                  (fun pin x ->
                    match f.Fault.site with
                    | Fault.Branch (g, p) when g = id && p = pin -> stuck
                    | Fault.Stem _ | Fault.Branch _ ->
                      if mask.(x) then faulty.(x) else good.(x))
                  (Circuit.fanins c id)
              in
              gate env kind args)))
    order;
  let diffs =
    Array.to_list (Circuit.outputs c)
    |> List.filter_map (fun o ->
           if mask.(o) then Some (Cnf.xor_lits env [| good.(o); faulty.(o) |]) else None)
  in
  Sat.add_clause sat (Array.of_list diffs);
  let options = { Sat.Options.default with Sat.Options.budget = Some budget } in
  match Sat.solve ~options sat with
  | Sat.Sat -> Test (Array.map (Sat.value sat) pi_vars)
  | Sat.Unsat -> Redundant
  | Sat.Unknown -> Unknown

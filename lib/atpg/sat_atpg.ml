(* SAT-based test generation and redundancy proofs for single stuck-at
   faults. Every fault is decided on a cleared solver holding only the
   fault's cone of influence: the good copy of the fanin cones of the
   outputs its fanout cone reaches, the faulty copy of the fanout cone
   inside them, one miter clause and Larrabee's D-chain clauses. The
   formula depends on nothing but the circuit and the fault, so every
   caller decides the same one. *)

type outcome =
  | Test of bool array
  | Redundant
  | Unknown of int

let pp_outcome ppf = function
  | Test v ->
    Format.fprintf ppf "test ";
    Array.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) v
  | Redundant -> Format.pp_print_string ppf "redundant"
  | Unknown budget -> Format.fprintf ppf "unknown (budget %d conflicts)" budget

let escalations_c =
  Obs.Counter.make ~help:"faults escalated to SAT" "atpg.sat_escalations"

let redundant_c =
  Obs.Counter.make ~help:"faults proved redundant by SAT" "atpg.sat_redundant"

type t = {
  circuit : Circuit.t;
  fsim : Fsim.t;
  order : int array;  (* topological order of the live nodes *)
  budget : int;
  env : Cnf.env;  (* cleared for each fault *)
  (* Per-node scratch, refilled for each fault: the fanout-cone and
     cone-of-influence masks, and the good, faulty and D-chain literals. *)
  fo : bool array;
  coi : bool array;
  good : int array;
  faulty : int array;
  d : int array;
}

let create ?(limits = Limits.default) c =
  {
    circuit = c;
    fsim = Fsim.create (Compiled.of_circuit c);
    order = Circuit.topo_order c;
    budget = limits.Limits.sat_conflicts;
    env = Cnf.create (Sat.create ());
    fo = Array.make (Circuit.size c) false;
    coi = Array.make (Circuit.size c) false;
    good = Array.make (Circuit.size c) Cnf.no_lit;
    faulty = Array.make (Circuit.size c) Cnf.no_lit;
    d = Array.make (Circuit.size c) Cnf.no_lit;
  }

(* Fanout cone of [root] (root included), as a node-id mask: the only nodes
   whose value a fault at/below [root] can change. *)
let fanout_cone mask c root =
  Array.fill mask 0 (Array.length mask) false;
  let rec visit id =
    if not mask.(id) then begin
      mask.(id) <- true;
      List.iter visit (Circuit.fanouts c id)
    end
  in
  visit root;
  mask

(* Transitive fanin of [outputs], as a node-id mask: the cone of influence
   when [outputs] are the outputs the fault can reach. *)
let fanin_cones mask c outputs =
  Array.fill mask 0 (Array.length mask) false;
  let rec visit id =
    if not mask.(id) then begin
      mask.(id) <- true;
      Array.iter visit (Circuit.fanins c id)
    end
  in
  List.iter visit outputs;
  mask

(* The fault's miter over its cone of influence [coi]: good literals on
   every [coi] node, faulty literals on [fo] ∩ [coi] (fanins outside [fo]
   read the good copy), the plain miter clause over [reached], and the
   D-chain: [d_v] claims that [v] carries the fault effect (good ≠ faulty)
   on to a primary output, so for a non-output [v] some in-cone fanout does
   too, and the unit [d_root] demands the effect at the fault site.
   Encodes into [t]'s environment, cleared first. Returns the solver
   variable of each input position, [-1] outside the cone. *)
let encode t (f : Fault.t) ~root ~fo ~coi ~reached =
  let c = t.circuit in
  let env = t.env in
  Cnf.clear env;
  let sat = Cnf.solver env in
  let stuck = if f.Fault.stuck then Cnf.ltrue env else Cnf.lfalse env in
  let n = Circuit.size c in
  let good = t.good and faulty = t.faulty and d = t.d in
  Array.fill good 0 n Cnf.no_lit;
  Array.fill faulty 0 n Cnf.no_lit;
  Array.fill d 0 n Cnf.no_lit;
  let pi_vars =
    Array.map
      (fun id ->
        if not coi.(id) then -1
        else begin
          let v = Sat.new_var sat in
          good.(id) <- Sat.lit v;
          v
        end)
      (Circuit.inputs c)
  in
  let faulty_fanin id pin x =
    if f.Fault.site = Fault.Branch (id, pin) then stuck
    else if fo.(x) then faulty.(x)
    else good.(x)
  in
  let cone = ref [] in
  Array.iter
    (fun id ->
      if coi.(id) then begin
        let fins = Circuit.fanins c id in
        let kind = Circuit.kind c id in
        if kind <> Gate.Input then
          good.(id) <- Cnf.encode_kind env kind (Array.map (fun x -> good.(x)) fins);
        if fo.(id) then begin
          cone := id :: !cone;
          faulty.(id) <-
            (if f.Fault.site = Fault.Stem id then stuck
             else Cnf.encode_kind env kind (Array.mapi (faulty_fanin id) fins))
        end
      end)
    t.order;
  Sat.add_clause sat
    (Array.of_list
       (List.map (fun o -> Cnf.xor_lits env [| good.(o); faulty.(o) |]) reached));
  List.iter (fun v -> d.(v) <- Sat.lit (Sat.new_var sat)) !cone;
  List.iter
    (fun v ->
      let dv = d.(v) in
      Sat.add_clause sat [| Sat.neg dv; good.(v); faulty.(v) |];
      Sat.add_clause sat [| Sat.neg dv; Sat.neg good.(v); Sat.neg faulty.(v) |];
      if not (Circuit.is_output c v) then
        Sat.add_clause sat
          (Array.of_list
             (Sat.neg dv
             :: List.filter_map
                  (fun w -> if coi.(w) then Some d.(w) else None)
                  (Circuit.fanouts c v))))
    !cone;
  Sat.add_clause sat [| d.(root) |];
  pi_vars

(* Replay a SAT test vector through the fault simulator; the solver must
   never fabricate a detecting vector the simulator rejects. *)
let validate_test t f vec =
  if not (Fsim.detect_single t.fsim f vec) then
    failwith
      "Sat_atpg.run: solver returned a vector the fault simulator does not \
       confirm (solver or encoder bug)"

let run t (f : Fault.t) =
  Obs.Span.with_ "atpg.sat" (fun () ->
      Obs.Counter.incr escalations_c;
      let c = t.circuit in
      let root =
        match f.Fault.site with Fault.Stem u -> u | Fault.Branch (g, _) -> g
      in
      let fo = fanout_cone t.fo c root in
      let reached = List.filter (fun o -> fo.(o)) (Array.to_list (Circuit.outputs c)) in
      let journal outcome =
        if Obs.Journal.enabled () then
          Obs.Journal.emit "sat_escalation"
            (Fault.journal_fields f
            @ [ ("outcome", Obs_json.String outcome) ])
      in
      let redundant () =
        Obs.Counter.incr redundant_c;
        journal "redundant";
        Redundant
      in
      match reached with
      | [] -> redundant ()
      | _ -> (
        let coi = fanin_cones t.coi c reached in
        let pi_vars = encode t f ~root ~fo ~coi ~reached in
        let sat = Cnf.solver t.env in
        let options =
          { Sat.Options.default with Sat.Options.budget = Some t.budget }
        in
        match Sat.solve ~options sat with
        | Sat.Sat ->
          (* Inputs outside the cone cannot affect a reached output: 0. *)
          let vec = Array.map (fun v -> v >= 0 && Sat.value sat v) pi_vars in
          validate_test t f vec;
          journal "test";
          Test vec
        | Sat.Unsat -> redundant ()
        | Sat.Unknown ->
          journal "unknown";
          Unknown t.budget))

type escalation = {
  escalated : int;
  tests : (Fault.t * bool array) list;
  redundant : Fault.t list;
  unknown : (Fault.t * int) list;
}

let escalate ?limits c faults =
  match faults with
  | [] -> { escalated = 0; tests = []; redundant = []; unknown = [] }
  | _ ->
    let t = create ?limits c in
    let acc =
      List.fold_left
        (fun acc f ->
          match run t f with
          | Test v -> { acc with tests = (f, v) :: acc.tests }
          | Redundant -> { acc with redundant = f :: acc.redundant }
          | Unknown b -> { acc with unknown = (f, b) :: acc.unknown })
        { escalated = List.length faults; tests = []; redundant = []; unknown = [] }
        faults
    in
    {
      acc with
      tests = List.rev acc.tests;
      redundant = List.rev acc.redundant;
      unknown = List.rev acc.unknown;
    }

(* Reference PODEM and line justification with full implication: after every
   decision, every gate of the circuit is re-simulated in topological order
   (good and faulty machine for PODEM), the D-frontier is rebuilt from a scan
   of the whole circuit and each frontier gate's X-path search starts from a
   cleared visited table. This is the search the library ran before its
   event-driven kernel ([Imply]); the differential tests require the library
   to match it verdict for verdict, vector for vector and decision for
   decision. *)

let fold f init a = Array.fold_left f init a

let eval kind inputs =
  match kind with
  | Gate.Input -> invalid_arg "Ref_atpg.eval: Input"
  | Gate.Const0 -> Tv.F
  | Gate.Const1 -> Tv.T
  | Gate.Buf -> inputs.(0)
  | Gate.Not -> Tv.lnot inputs.(0)
  | Gate.And -> fold Tv.land_ Tv.T inputs
  | Gate.Nand -> Tv.lnot (fold Tv.land_ Tv.T inputs)
  | Gate.Or -> fold Tv.lor_ Tv.F inputs
  | Gate.Nor -> Tv.lnot (fold Tv.lor_ Tv.F inputs)
  | Gate.Xor -> fold Tv.lxor_ Tv.F inputs
  | Gate.Xnor -> Tv.lnot (fold Tv.lxor_ Tv.F inputs)

exception Abort

(* --- PODEM ------------------------------------------------------------------ *)

type pstate = {
  cmp : Compiled.t;
  stuck : Tv.v;
  site_stem : int;
  fault_gate : int;
  fault_pin : int;
  stem_node : int;
  pi_value : Tv.v array;
  good : Tv.v array;
  faul : Tv.v array;
  mutable decisions : int;
  mutable backtracks : int;
  limit : int;
}

let eval_node values st id =
  let fins = Compiled.fanins st.cmp id in
  eval (Compiled.kind st.cmp id) (Array.map (fun f -> values.(f)) fins)

let eval_faulty st id =
  if id = st.stem_node then st.stuck
  else begin
    let fins = Compiled.fanins st.cmp id in
    let vals =
      Array.mapi
        (fun pin f ->
          if id = st.fault_gate && pin = st.fault_pin then st.stuck else st.faul.(f))
        fins
    in
    match Compiled.kind st.cmp id with
    | Gate.Input -> st.faul.(id)
    | k -> eval k vals
  end

let imply st =
  Array.iter
    (fun id ->
      match Compiled.kind st.cmp id with
      | Gate.Input ->
        st.good.(id) <- st.pi_value.(id);
        st.faul.(id) <- (if id = st.stem_node then st.stuck else st.pi_value.(id))
      | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.And | Gate.Or
      | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        st.good.(id) <- eval_node st.good st id;
        st.faul.(id) <- eval_faulty st id)
    (Compiled.order st.cmp)

let has_d st id =
  Tv.known st.good.(id) && Tv.known st.faul.(id)
  && not (Tv.equal st.good.(id) st.faul.(id))

let composite_x st id = not (Tv.known st.good.(id)) || not (Tv.known st.faul.(id))
let detected st = Array.exists (fun po -> has_d st po) (Compiled.outputs st.cmp)

let d_frontier st =
  let frontier = ref [] in
  Array.iter
    (fun id ->
      match Compiled.kind st.cmp id with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
      | Gate.Xnor ->
        if composite_x st id then begin
          let d_in = ref false in
          Array.iteri
            (fun pin f ->
              let fv =
                if id = st.fault_gate && pin = st.fault_pin then st.stuck else st.faul.(f)
              in
              let gv = st.good.(f) in
              if Tv.known gv && Tv.known fv && not (Tv.equal gv fv) then d_in := true)
            (Compiled.fanins st.cmp id);
          if !d_in then frontier := id :: !frontier
        end)
    (Compiled.order st.cmp);
  List.rev !frontier

let x_path_exists st frontier =
  let size = Compiled.size st.cmp in
  let visited = Bytes.make size '\000' in
  let rec dfs id =
    if Bytes.get visited id = '\001' then false
    else begin
      Bytes.set visited id '\001';
      if not (composite_x st id) then false
      else if Compiled.is_po st.cmp id then true
      else Array.exists dfs (Compiled.fanouts st.cmp id)
    end
  in
  List.exists
    (fun g ->
      Bytes.fill visited 0 size '\000';
      dfs g)
    frontier

let podem_backtrace st node v =
  let rec walk node v =
    match Compiled.kind st.cmp node with
    | Gate.Input -> Some (node, v)
    | Gate.Const0 | Gate.Const1 -> None
    | Gate.Buf -> walk (Compiled.fanins st.cmp node).(0) v
    | Gate.Not -> walk (Compiled.fanins st.cmp node).(0) (Tv.lnot v)
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
      let phase = if Gate.inverting kind then Tv.lnot v else v in
      let x_input =
        Array.fold_left
          (fun acc f ->
            match acc with
            | Some _ -> acc
            | None -> if Tv.known st.good.(f) then None else Some f)
          None (Compiled.fanins st.cmp node)
      in
      Option.bind x_input (fun f -> walk f phase)
    | (Gate.Xor | Gate.Xnor) as kind ->
      let phase = if Gate.inverting kind then Tv.lnot v else v in
      let x_input = ref None in
      let parity = ref Tv.F in
      Array.iter
        (fun f ->
          if Tv.known st.good.(f) then parity := Tv.lxor_ !parity st.good.(f)
          else if !x_input = None then x_input := Some f)
        (Compiled.fanins st.cmp node);
      Option.bind !x_input (fun f -> walk f (Tv.lxor_ phase !parity))
  in
  walk node v

type verdict = Found | Exhausted

let rec podem_search st =
  imply st;
  if detected st then Found
  else begin
    let site_gv = st.good.(st.site_stem) in
    if Tv.known site_gv && Tv.equal site_gv st.stuck then Exhausted
    else begin
      let objective =
        if not (Tv.known site_gv) then Some (st.site_stem, Tv.lnot st.stuck)
        else
          match d_frontier st with
          | [] -> None
          | frontier when not (x_path_exists st frontier) -> None
          | g :: _ -> (
            let side = ref None in
            Array.iter
              (fun f -> if !side = None && not (Tv.known st.good.(f)) then side := Some f)
              (Compiled.fanins st.cmp g);
            match !side with
            | Some f ->
              let v =
                match Gate.controlling (Compiled.kind st.cmp g) with
                | Some c -> Tv.of_bool (not c)
                | None -> Tv.F
              in
              Some (f, v)
            | None -> None)
      in
      match Option.bind objective (fun (node, v) -> podem_backtrace st node v) with
      | None -> Exhausted
      | Some (pi, pv) -> (
        let try_value value =
          st.decisions <- st.decisions + 1;
          st.pi_value.(pi) <- value;
          podem_search st
        in
        match try_value pv with
        | Found -> Found
        | Exhausted -> (
          st.backtracks <- st.backtracks + 1;
          if st.backtracks > st.limit then raise Abort;
          match try_value (Tv.lnot pv) with
          | Found -> Found
          | Exhausted ->
            st.pi_value.(pi) <- Tv.X;
            Exhausted))
    end
  end

let pstate ~limit c (f : Fault.t) =
  let cmp = Compiled.of_circuit c in
  let site_stem, fault_gate, fault_pin, stem_node =
    match f.Fault.site with
    | Fault.Stem u -> (u, -1, -1, u)
    | Fault.Branch (g, pin) -> ((Circuit.fanins c g).(pin), g, pin, -1)
  in
  let size = Compiled.size cmp in
  {
    cmp;
    stuck = Tv.of_bool f.Fault.stuck;
    site_stem;
    fault_gate;
    fault_pin;
    stem_node;
    pi_value = Array.make size Tv.X;
    good = Array.make size Tv.X;
    faul = Array.make size Tv.X;
    decisions = 0;
    backtracks = 0;
    limit;
  }

(* Good and faulty values of every node under a primary-input assignment
   (indexed like [Circuit.inputs]) after one full pass. *)
let simulate c f assignment =
  let st = pstate ~limit:0 c f in
  Array.iteri (fun i pi -> st.pi_value.(pi) <- assignment.(i)) (Compiled.inputs st.cmp);
  imply st;
  (st.good, st.faul)

(* The outcome with the search's decision and backtrack counts (the values
   the library adds to [podem.decisions] and [podem.backtracks]). *)
let podem ?(backtrack_limit = Limits.default.Limits.podem_backtracks) c f =
  let st = pstate ~limit:backtrack_limit c f in
  let outcome =
    match podem_search st with
    | Found ->
      Podem.Test
        (Array.map
           (fun pi -> match st.pi_value.(pi) with Tv.T -> true | Tv.F | Tv.X -> false)
           (Compiled.inputs st.cmp))
    | Exhausted -> Podem.Untestable
    | exception Abort -> Podem.Aborted
  in
  (outcome, st.decisions, st.backtracks)

(* --- Line justification ------------------------------------------------------ *)

type jstate = {
  jcmp : Compiled.t;
  targets : (int * Tv.v) array;
  jpi : Tv.v array;
  values : Tv.v array;
  mutable jbacktracks : int;
  jlimit : int;
  rng : Rng.t option;
}

let jimply st =
  Array.iter
    (fun id ->
      match Compiled.kind st.jcmp id with
      | Gate.Input -> st.values.(id) <- st.jpi.(id)
      | k ->
        st.values.(id) <-
          eval k (Array.map (fun f -> st.values.(f)) (Compiled.fanins st.jcmp id)))
    (Compiled.order st.jcmp)

let status st =
  let conflict = ref false in
  let open_target = ref None in
  Array.iter
    (fun (node, want) ->
      let v = st.values.(node) in
      if Tv.known v then begin
        if not (Tv.equal v want) then conflict := true
      end
      else if !open_target = None then open_target := Some (node, want))
    st.targets;
  if !conflict then `Conflict
  else match !open_target with None -> `Satisfied | Some t -> `Open t

let pick_x st fins =
  let xs = Array.to_list fins |> List.filter (fun f -> not (Tv.known st.values.(f))) in
  match (xs, st.rng) with
  | [], _ -> None
  | x :: _, None -> Some x
  | xs, Some rng -> Some (List.nth xs (Rng.int rng (List.length xs)))

let justify_backtrace st node v =
  let rec walk node v =
    match Compiled.kind st.jcmp node with
    | Gate.Input -> if Tv.known st.values.(node) then None else Some (node, v)
    | Gate.Const0 | Gate.Const1 -> None
    | Gate.Buf -> walk (Compiled.fanins st.jcmp node).(0) v
    | Gate.Not -> walk (Compiled.fanins st.jcmp node).(0) (Tv.lnot v)
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
      let phase = if Gate.inverting kind then Tv.lnot v else v in
      Option.bind (pick_x st (Compiled.fanins st.jcmp node)) (fun f -> walk f phase)
    | (Gate.Xor | Gate.Xnor) as kind ->
      let phase = if Gate.inverting kind then Tv.lnot v else v in
      let x_input = ref None in
      let parity = ref Tv.F in
      Array.iter
        (fun f ->
          if Tv.known st.values.(f) then parity := Tv.lxor_ !parity st.values.(f)
          else if !x_input = None then x_input := Some f)
        (Compiled.fanins st.jcmp node);
      Option.bind !x_input (fun f -> walk f (Tv.lxor_ phase !parity))
  in
  walk node v

let rec justify_search st =
  jimply st;
  match status st with
  | `Satisfied -> Found
  | `Conflict -> Exhausted
  | `Open (node, want) -> (
    match justify_backtrace st node want with
    | None -> Exhausted
    | Some (pi, pv) -> (
      let attempt value =
        st.jpi.(pi) <- value;
        justify_search st
      in
      match attempt pv with
      | Found -> Found
      | Exhausted -> (
        st.jbacktracks <- st.jbacktracks + 1;
        if st.jbacktracks > st.jlimit then raise Abort;
        match attempt (Tv.lnot pv) with
        | Found -> Found
        | Exhausted ->
          st.jpi.(pi) <- Tv.X;
          Exhausted)))

let justify ?(backtrack_limit = Limits.default.Limits.justify_backtracks) ?rng ?prefer c
    targets =
  let cmp = Compiled.of_circuit c in
  let size = Compiled.size cmp in
  let st =
    {
      jcmp = cmp;
      targets = Array.of_list (List.map (fun (n, b) -> (n, Tv.of_bool b)) targets);
      jpi = Array.make size Tv.X;
      values = Array.make size Tv.X;
      jbacktracks = 0;
      jlimit = backtrack_limit;
      rng;
    }
  in
  match justify_search st with
  | Found ->
    let fill i = match prefer with Some p -> p.(i) | None -> false in
    Justify.Sat
      (Array.mapi
         (fun i pi ->
           match st.jpi.(pi) with Tv.T -> true | Tv.F -> false | Tv.X -> fill i)
         (Compiled.inputs cmp))
  | Exhausted -> Justify.Unsat
  | exception Abort -> Justify.Unknown

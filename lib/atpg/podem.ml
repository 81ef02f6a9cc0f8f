type outcome =
  | Test of bool array
  | Untestable
  | Aborted

let pp_outcome ppf = function
  | Test v ->
    Format.fprintf ppf "test ";
    Array.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) v
  | Untestable -> Format.pp_print_string ppf "untestable"
  | Aborted -> Format.pp_print_string ppf "aborted"

exception Abort

(* One circuit's search context, shared by every fault [run] decides on it:
   the implication kernel, reset per fault, and the X-path marks, which
   carry over from fault to fault: each frontier search takes a fresh mark,
   so a mark left behind by an earlier search never reads as visited. *)
type t = {
  cmp : Compiled.t;
  imp : Imply.t;
  limit : int;
  visited : Bytes.t; (* X-path marks: [mark] for the current search *)
  mutable mark : char; (* '\001'..'\255'; [visited] is cleared on wrap *)
  cone_pos : int array; (* the first [n_cone_pos]: primary outputs in the cone *)
  mutable n_cone_pos : int;
}

let create ?(backtrack_limit = Limits.default.Limits.podem_backtracks) c =
  let cmp = Compiled.of_circuit c in
  {
    cmp;
    imp = Imply.create cmp;
    limit = backtrack_limit;
    visited = Bytes.make (Compiled.size cmp) '\000';
    mark = '\000';
    cone_pos = Array.make (Compiled.size cmp) 0;
    n_cone_pos = 0;
  }

type state = {
  ctx : t;
  cmp : Compiled.t;
  imp : Imply.t;
  stuck : Tv.v; (* forced faulty value at the site *)
  site_stem : int; (* node whose good value activates the fault *)
  mutable backtracks : int;
}

(* Outside the fault cone the faulty value is the good value, so D values,
   the D-frontier and X-paths all lie in the cone (DESIGN.md §18). *)
let detected st =
  let ctx = st.ctx in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < ctx.n_cone_pos do
    found := Imply.d st.imp ctx.cone_pos.(!i);
    incr i
  done;
  !found

(* D-frontier membership: output composite-X with a D on some input
   (including the injected faulty pin). *)
let on_frontier st id =
  match Compiled.kind st.cmp id with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor ->
    Imply.composite_x st.imp id
    && begin
      let arity = Array.length (Compiled.fanins st.cmp id) in
      let d_in = ref false and pin = ref 0 in
      while (not !d_in) && !pin < arity do
        d_in := Imply.pin_d st.imp id !pin;
        incr pin
      done;
      !d_in
    end

(* Is there a path of composite-X lines from [id] to a PO? *)
let rec x_path st id =
  Bytes.get st.ctx.visited id <> st.ctx.mark
  && begin
    Bytes.set st.ctx.visited id st.ctx.mark;
    Imply.composite_x st.imp id
    && (Compiled.is_po st.cmp id || Array.exists (x_path st) (Compiled.fanouts st.cmp id))
  end

(* The first D-frontier gate in topological order, provided some frontier
   gate has an X-path to a PO; -1 otherwise. The frontier gates share one
   visited table: a node an earlier, failed search visited has no X-path
   (DESIGN.md §18), so skipping it does not change the answer. *)
let frontier_gate st =
  let ctx = st.ctx in
  if ctx.mark = '\255' then begin
    Bytes.fill ctx.visited 0 (Bytes.length ctx.visited) '\000';
    ctx.mark <- '\000'
  end;
  ctx.mark <- Char.chr (Char.code ctx.mark + 1);
  let cone = Imply.cone st.imp and size = Imply.cone_size st.imp in
  let first = ref (-1) and path = ref false and i = ref 0 in
  while (not !path) && !i < size do
    let id = cone.(!i) in
    if on_frontier st id then begin
      if !first < 0 then first := id;
      path := x_path st id
    end;
    incr i
  done;
  if !path then !first else -1

let backtrace st node v =
  let rec walk node v =
    match Compiled.kind st.cmp node with
    | Gate.Input -> Some (node, v)
    | Gate.Const0 | Gate.Const1 -> None
    | Gate.Buf -> walk (Compiled.fanins st.cmp node).(0) v
    | Gate.Not -> walk (Compiled.fanins st.cmp node).(0) (Tv.lnot v)
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
      let kind = Compiled.kind st.cmp node in
      let invert = Gate.inverting kind in
      let phase = if invert then Tv.lnot v else v in
      let fins = Compiled.fanins st.cmp node in
      let x_input =
        Array.fold_left
          (fun acc f ->
            match acc with
            | Some _ -> acc
            | None -> if Tv.known (Imply.good st.imp f) then None else Some f)
          None fins
      in
      (match x_input with
      | None -> None
      | Some f ->
        (* For And/Nand, reaching output-phase 1 needs all inputs 1; phase 0
           is reached by any single 0. Either way the chosen X input gets the
           phase value itself for And (dually Or). *)
        let target =
          match kind with
          | Gate.And | Gate.Nand -> phase
          | Gate.Or | Gate.Nor -> phase
          | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not
          | Gate.Xor | Gate.Xnor -> assert false
        in
        walk f target)
    | Gate.Xor | Gate.Xnor ->
      let invert = Gate.inverting (Compiled.kind st.cmp node) in
      let phase = if invert then Tv.lnot v else v in
      let fins = Compiled.fanins st.cmp node in
      let x_input = ref None in
      let parity = ref Tv.F in
      Array.iter
        (fun f ->
          let v = Imply.good st.imp f in
          if Tv.known v then parity := Tv.lxor_ !parity v
          else if !x_input = None then x_input := Some f)
        fins;
      (match !x_input with
      | None -> None
      | Some f -> walk f (Tv.lxor_ phase !parity))
  in
  walk node v

type verdict = Found | Exhausted

(* Observability probes: one counter bump per decision / backtrack / abort,
   nothing inside implication or frontier computation. *)
let decisions_c = Obs.Counter.make ~help:"PI assignments tried" "podem.decisions"
let backtracks_c = Obs.Counter.make ~help:"decision reversals" "podem.backtracks"
let aborted_c = Obs.Counter.make ~help:"searches hitting the backtrack limit" "podem.aborted"

let rec search st =
  if detected st then Found
  else begin
    let site_gv = Imply.good st.imp st.site_stem in
    if Tv.known site_gv && Tv.equal site_gv st.stuck then Exhausted
    else begin
      let objective =
        if not (Tv.known site_gv) then Some (st.site_stem, Tv.lnot st.stuck)
        else begin
          (* Fault is activated: extend the D-frontier. *)
          let g = frontier_gate st in
          if g < 0 then None
          else begin
            let fins = Compiled.fanins st.cmp g in
            let side = ref None in
            Array.iter
              (fun f ->
                if !side = None && not (Tv.known (Imply.good st.imp f)) then side := Some f)
              fins;
            (match !side with
            | Some f ->
              let v =
                match Gate.controlling (Compiled.kind st.cmp g) with
                | Some c -> Tv.of_bool (not c)
                | None -> Tv.F (* XOR side inputs: any value propagates *)
              in
              Some (f, v)
            | None ->
              (* output X but all inputs known: impossible for total gates *)
              None)
          end
        end
      in
      match objective with
      | None -> Exhausted
      | Some (node, v) -> (
        match backtrace st node v with
        | None -> Exhausted
        | Some (pi, pv) ->
          let try_value value =
            Obs.Counter.incr decisions_c;
            Imply.assign st.imp pi value;
            search st
          in
          (match try_value pv with
          | Found -> Found
          | Exhausted ->
            st.backtracks <- st.backtracks + 1;
            Obs.Counter.incr backtracks_c;
            if st.backtracks > st.ctx.limit then raise Abort;
            (match try_value (Tv.lnot pv) with
            | Found -> Found
            | Exhausted ->
              Imply.assign st.imp pi Tv.X;
              Exhausted)))
    end
  end

let run (ctx : t) (f : Fault.t) =
  Obs.Span.with_ "podem.generate" (fun () ->
      let cmp = ctx.cmp and imp = ctx.imp in
      Imply.reset ~fault:f imp;
      let cone = Imply.cone imp in
      ctx.n_cone_pos <- 0;
      for i = 0 to Imply.cone_size imp - 1 do
        if Compiled.is_po cmp cone.(i) then begin
          ctx.cone_pos.(ctx.n_cone_pos) <- cone.(i);
          ctx.n_cone_pos <- ctx.n_cone_pos + 1
        end
      done;
      let site_stem =
        match f.Fault.site with
        | Fault.Stem u -> u
        | Fault.Branch (g, pin) -> (Compiled.fanins cmp g).(pin)
      in
      let st =
        {
          ctx;
          cmp;
          imp;
          stuck = Tv.of_bool f.Fault.stuck;
          site_stem;
          backtracks = 0;
        }
      in
      match search st with
      | Found ->
        let vec =
          Array.map
            (fun pi -> match Imply.good imp pi with Tv.T -> true | Tv.F | Tv.X -> false)
            (Compiled.inputs cmp)
        in
        Test vec
      | Exhausted -> Untestable
      | exception Abort ->
        Obs.Counter.incr aborted_c;
        if Obs.Journal.enabled () then
          Obs.Journal.emit "podem_abort"
            (Fault.journal_fields f
            @ [ ("backtracks", Obs_json.Int st.backtracks) ]);
        Aborted)

type stats = {
  tested : int;
  untestable : int;
  aborted : int;
  tests : (Fault.t * bool array) list;
  aborted_faults : Fault.t list;
}

let generate ?backtrack_limit c f = run (create ?backtrack_limit c) f

let generate_all ?backtrack_limit c faults =
  Obs.Span.with_ "podem.generate_all" (fun () ->
      let ctx = create ?backtrack_limit c in
      List.fold_left
        (fun acc f ->
          match run ctx f with
          | Test v -> { acc with tested = acc.tested + 1; tests = (f, v) :: acc.tests }
          | Untestable -> { acc with untestable = acc.untestable + 1 }
          | Aborted ->
            {
              acc with
              aborted = acc.aborted + 1;
              aborted_faults = f :: acc.aborted_faults;
            })
        { tested = 0; untestable = 0; aborted = 0; tests = []; aborted_faults = [] }
        faults)

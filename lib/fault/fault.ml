type site =
  | Stem of int
  | Branch of int * int

type t = { site : site; stuck : bool }

let site_name c = function
  | Stem id -> (
    match Circuit.node_name c id with
    | Some s -> s
    | None -> Printf.sprintf "n%d" id)
  | Branch (g, pin) ->
    let stem = (Circuit.fanins c g).(pin) in
    let sname =
      match Circuit.node_name c stem with
      | Some s -> s
      | None -> Printf.sprintf "n%d" stem
    in
    let gname =
      match Circuit.node_name c g with
      | Some s -> s
      | None -> Printf.sprintf "n%d" g
    in
    Printf.sprintf "%s->%s" sname gname

let to_string c f =
  Printf.sprintf "%s s-a-%d" (site_name c f.site) (if f.stuck then 1 else 0)

let pp c ppf f = Format.pp_print_string ppf (to_string c f)

let journal_fields f =
  let site =
    match f.site with
    | Stem u -> [ ("site", Obs_json.String "stem"); ("node", Obs_json.Int u) ]
    | Branch (g, pin) ->
      [
        ("site", Obs_json.String "branch");
        ("gate", Obs_json.Int g);
        ("pin", Obs_json.Int pin);
      ]
  in
  site @ [ ("stuck", Obs_json.Int (if f.stuck then 1 else 0)) ]

let is_const_node c id =
  match Circuit.kind c id with
  | Gate.Const0 | Gate.Const1 -> true
  | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
  | Gate.Nor | Gate.Xor | Gate.Xnor -> false

(* Pins reading each stem, as (gate, pin) pairs in deterministic order. *)
let reader_pins c =
  let pins = Array.make (Circuit.size c) [] in
  let order = Circuit.topo_order c in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    let fins = Circuit.fanins c g in
    for pin = Array.length fins - 1 downto 0 do
      pins.(fins.(pin)) <- (g, pin) :: pins.(fins.(pin))
    done
  done;
  pins

let fault_sites ?(collapse = false) c =
  let pins = reader_pins c in
  let faults = ref [] in
  let add site stuck = faults := { site; stuck } :: !faults in
  let order = Circuit.topo_order c in
  Array.iter
    (fun id ->
      if not (is_const_node c id) then begin
        let readers = pins.(id) in
        let fanout = List.length readers in
        (* A floating line (no readers, not observed) carries no fault. *)
        if fanout > 0 || Circuit.is_output c id then begin
        (* Stem faults, possibly collapsed into the (unique) reading gate. *)
        let dropped_stem stuck =
          collapse && (not (Circuit.is_output c id))
          && fanout = 1
          &&
          match readers with
          | [ (g, _) ] -> (
            match Circuit.kind c g with
            | Gate.And | Gate.Nand -> stuck = false
            | Gate.Or | Gate.Nor -> stuck = true
            | Gate.Buf | Gate.Not -> true
            | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Xor | Gate.Xnor ->
              false)
          | [] | _ :: _ :: _ -> false
        in
        if not (dropped_stem false) then add (Stem id) false;
        if not (dropped_stem true) then add (Stem id) true;
        (* Branch faults where the stem actually branches. *)
        if fanout > 1 then
          List.iter
            (fun (g, pin) ->
              let dropped stuck =
                collapse
                &&
                match Circuit.kind c g with
                | Gate.And | Gate.Nand -> stuck = false
                | Gate.Or | Gate.Nor -> stuck = true
                | Gate.Buf | Gate.Not -> true
                | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Xor
                | Gate.Xnor -> false
              in
              if not (dropped false) then add (Branch (g, pin)) false;
              if not (dropped true) then add (Branch (g, pin)) true)
            readers
        end
      end)
    order;
  List.rev !faults

let all c = fault_sites ~collapse:false c
let collapsed c = fault_sites ~collapse:true c

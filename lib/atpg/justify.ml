type verdict =
  | Sat of bool array
  | Unsat
  | Unknown

exception Abort

type state = {
  cmp : Compiled.t;
  imp : Imply.t;
  targets : (int * Tv.v) array;
  mutable backtracks : int;
  limit : int;
  rng : Rng.t option;  (* randomises backtrace tie-breaks for retries *)
}

let status st =
  (* Conflict: a target line is known and wrong. Satisfied: all targets hold. *)
  let conflict = ref false in
  let open_target = ref None in
  Array.iter
    (fun (node, want) ->
      let v = Imply.good st.imp node in
      if Tv.known v then begin
        if not (Tv.equal v want) then conflict := true
      end
      else if !open_target = None then open_target := Some (node, want))
    st.targets;
  if !conflict then `Conflict
  else match !open_target with None -> `Satisfied | Some t -> `Open t

(* Pick an unassigned fanin; with an rng, pick uniformly among them. *)
let pick_x st fins =
  let xs = Array.to_list fins |> List.filter (fun f -> not (Tv.known (Imply.good st.imp f))) in
  match (xs, st.rng) with
  | [], _ -> None
  | x :: _, None -> Some x
  | xs, Some rng -> Some (List.nth xs (Rng.int rng (List.length xs)))

let backtrace st node v =
  let rec walk node v =
    match Compiled.kind st.cmp node with
    | Gate.Input -> if Tv.known (Imply.good st.imp node) then None else Some (node, v)
    | Gate.Const0 | Gate.Const1 -> None
    | Gate.Buf -> walk (Compiled.fanins st.cmp node).(0) v
    | Gate.Not -> walk (Compiled.fanins st.cmp node).(0) (Tv.lnot v)
    | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind ->
      let invert = Gate.inverting kind in
      let phase = if invert then Tv.lnot v else v in
      let fins = Compiled.fanins st.cmp node in
      Option.bind (pick_x st fins) (fun f -> walk f phase)
    | (Gate.Xor | Gate.Xnor) as kind ->
      let invert = Gate.inverting kind in
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
      Option.bind !x_input (fun f -> walk f (Tv.lxor_ phase !parity))
  in
  walk node v

type outcome = Found | Exhausted

let rec search_rec st =
  match status st with
  | `Satisfied -> Found
  | `Conflict -> Exhausted
  | `Open (node, want) -> (
    match backtrace st node want with
    | None -> Exhausted
    | Some (pi, pv) ->
      let attempt value =
        Imply.assign st.imp pi value;
        search_rec st
      in
      (match attempt pv with
      | Found -> Found
      | Exhausted ->
        st.backtracks <- st.backtracks + 1;
        if st.backtracks > st.limit then raise Abort;
        (match attempt (Tv.lnot pv) with
        | Found -> Found
        | Exhausted ->
          Imply.assign st.imp pi Tv.X;
          Exhausted)))

let search ?(backtrack_limit = Limits.default.Limits.justify_backtracks) ?rng ?prefer c
    targets =
  Obs.Span.with_ "justify.search" (fun () ->
      let cmp = Compiled.of_circuit c in
      let st =
        {
          cmp;
          imp = Imply.create cmp;
          targets = Array.of_list (List.map (fun (n, b) -> (n, Tv.of_bool b)) targets);
          backtracks = 0;
          limit = backtrack_limit;
          rng;
        }
      in
      match search_rec st with
      | Found ->
        let fill i =
          match prefer with Some p -> p.(i) | None -> false
        in
        let vec =
          Array.mapi
            (fun i pi ->
              match Imply.good st.imp pi with Tv.T -> true | Tv.F -> false | Tv.X -> fill i)
            (Compiled.inputs cmp)
        in
        Sat vec
      | Exhausted -> Unsat
      | exception Abort -> Unknown)

let reachable_exhaustive c targets =
  let n = Circuit.num_inputs c in
  if n > 20 then invalid_arg "Justify.reachable_exhaustive: too many inputs";
  let found = ref false in
  for m = 0 to (1 lsl n) - 1 do
    if not !found then begin
      let vec = Array.init n (fun j -> m land (1 lsl (n - 1 - j)) <> 0) in
      let values = Eval.node_values c vec in
      if List.for_all (fun (node, want) -> values.(node) = want) targets then
        found := true
    end
  done;
  !found

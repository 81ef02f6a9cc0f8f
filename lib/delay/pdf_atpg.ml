type outcome =
  | Test of bool array * bool array
  | Untestable
  | Aborted
  | Unsupported

let pp_outcome ppf = function
  | Test (_, _) -> Format.pp_print_string ppf "test"
  | Untestable -> Format.pp_print_string ppf "untestable"
  | Aborted -> Format.pp_print_string ppf "aborted"
  | Unsupported -> Format.pp_print_string ppf "unsupported"

exception Xor_on_path

(* Transition direction of every on-path node, primary input first. *)
let path_directions c path direction =
  let n = Array.length path in
  let dirs = Array.make n direction in
  for i = 1 to n - 1 do
    let invert =
      match Circuit.kind c path.(i) with
      | Gate.Buf -> false
      | Gate.Not | Gate.Nand | Gate.Nor -> true
      | Gate.And | Gate.Or -> false
      | Gate.Xor | Gate.Xnor -> raise Xor_on_path
      | Gate.Input | Gate.Const0 | Gate.Const1 ->
        invalid_arg "Pdf_atpg: malformed path"
    in
    let prev = dirs.(i - 1) in
    dirs.(i) <-
      (if invert then
         match prev with Robust.Rising -> Robust.Falling | Robust.Falling -> Robust.Rising
       else prev)
  done;
  dirs

let final_of = function Robust.Rising -> true | Robust.Falling -> false

(* Necessary value constraints of a robust test, as justification targets for
   the initial and final frames. *)
let constraints c path dirs =
  let targets1 = ref [] and targets2 = ref [] in
  Array.iteri
    (fun i node ->
      let final = final_of dirs.(i) in
      targets1 := (node, not final) :: !targets1;
      targets2 := (node, final) :: !targets2)
    path;
  for i = 0 to Array.length path - 2 do
    let u = path.(i) and g = path.(i + 1) in
    match Gate.controlling (Circuit.kind c g) with
    | None -> ()
    | Some ctrl ->
      let onpath_final = final_of dirs.(i) in
      let fins = Circuit.fanins c g in
      let skipped_onpath = ref false in
      Array.iter
        (fun s ->
          if s = u && not !skipped_onpath then skipped_onpath := true
          else begin
            targets2 := (s, not ctrl) :: !targets2;
            if onpath_final <> ctrl then targets1 := (s, not ctrl) :: !targets1
          end)
        fins
  done;
  (List.rev !targets1, List.rev !targets2)

let generate ?(backtrack_limit = 2000) ?(retries = 16) ~seed c ~path ~direction =
  match path_directions c path direction with
  | exception Xor_on_path -> Unsupported
  | dirs ->
    let targets1, targets2 = constraints c path dirs in
    let cmp = Compiled.of_circuit c in
    let validate v1 v2 =
      let waves = Wave.simulate cmp ~v1 ~v2 in
      Robust.detects cmp waves path = Some direction
    in
    let justify = Justify.create ~backtrack_limit c in
    let solve ?rng () =
      match Justify.run justify ?rng targets1 with
      | Justify.Unsat -> `Untestable
      | Justify.Unknown -> `Aborted
      | Justify.Sat v1 -> (
        (* unconstrained inputs copy v1 so they stay stable across the pair *)
        match Justify.run justify ?rng ~prefer:v1 targets2 with
        | Justify.Unsat -> `Untestable
        | Justify.Unknown -> `Aborted
        | Justify.Sat v2 -> `Candidate (v1, v2))
    in
    let n_pi = Array.length (Compiled.inputs cmp) in
    (* Hazard freedom is not a value constraint; when randomised retries fail
       on a small circuit, fall back to exhaustive two-pattern search so the
       verdict stays decisive. *)
    let exhaustive_fallback () =
      if n_pi > 8 then Aborted
      else begin
        let vec m = Array.init n_pi (fun j -> m land (1 lsl (n_pi - 1 - j)) <> 0) in
        let result = ref Untestable in
        let m1 = ref 0 in
        while !result = Untestable && !m1 < 1 lsl n_pi do
          for m2 = 0 to (1 lsl n_pi) - 1 do
            if !result = Untestable then begin
              let v1 = vec !m1 and v2 = vec m2 in
              if validate v1 v2 then result := Test (v1, v2)
            end
          done;
          incr m1
        done;
        !result
      end
    in
    (match solve () with
    | `Untestable -> Untestable
    | `Aborted -> Aborted
    | `Candidate (v1, v2) ->
      if validate v1 v2 then Test (v1, v2)
      else begin
        (* hazard on a stable side input: retry with randomised witnesses *)
        let rng = Rng.create seed in
        let rec retry k =
          if k = 0 then exhaustive_fallback ()
          else
            match solve ~rng () with
            | `Untestable -> Untestable
            | `Aborted -> Aborted
            | `Candidate (v1, v2) ->
              if validate v1 v2 then Test (v1, v2) else retry (k - 1)
        in
        retry retries
      end)

type summary = {
  testable : int;
  untestable : int;
  aborted : int;
  unsupported : int;
}

let pp_summary ppf s =
  Format.fprintf ppf "robustly testable %d, untestable %d, aborted %d, unsupported %d"
    s.testable s.untestable s.aborted s.unsupported

let classify_all ?backtrack_limit ?retries ?(max_paths = 20_000) ~seed c =
  let paths = Paths.enumerate ~cap:max_paths c in
  let summary = ref { testable = 0; untestable = 0; aborted = 0; unsupported = 0 } in
  let bump outcome =
    let s = !summary in
    summary :=
      (match outcome with
      | Test _ -> { s with testable = s.testable + 1 }
      | Untestable -> { s with untestable = s.untestable + 1 }
      | Aborted -> { s with aborted = s.aborted + 1 }
      | Unsupported -> { s with unsupported = s.unsupported + 1 })
  in
  List.iter
    (fun path ->
      bump (generate ?backtrack_limit ?retries ~seed c ~path ~direction:Robust.Rising);
      bump (generate ?backtrack_limit ?retries ~seed c ~path ~direction:Robust.Falling))
    paths;
  !summary

(* CI helper for the @trace-smoke alias: validate that a Chrome trace
   written by `sft report --chrome` is a well-formed trace-event JSON array
   (DESIGN.md §11).

   Checks, per the trace-event format:
     - the document is a non-empty JSON array of event objects;
     - every event carries string "name"/"ph" and integer "pid"/"tid";
     - "ph" is one of X (complete slice), i (instant), M (metadata);
     - all events share a single pid;
     - X and i events carry a non-negative numeric "ts", X events a
       non-negative "dur";
     - per tid, X slices nest: any two are disjoint or one contains the
       other. Slice bounds come from journal timestamps printed to twelve
       significant digits, so they are compared within half a microsecond,
       below the clock's resolution.

   Usage: validate_trace.exe FILE *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_trace: " ^ m); exit 1) fmt
let eps_us = 0.5

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else die "usage: validate_trace FILE" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let events =
    match Obs_json.parse text with
    | Ok (Obs_json.List events) -> events
    | Ok _ -> die "%s: top-level value is not an array" file
    | Error msg -> die "%s: invalid JSON: %s" file msg
  in
  let str_field ev key =
    match Obs_json.member key ev with
    | Some (Obs_json.String s) -> s
    | _ -> die "%s: event without string %S field" file key
  in
  let int_field ev key =
    match Obs_json.member key ev with
    | Some (Obs_json.Int n) -> n
    | _ -> die "%s: event without integer %S field" file key
  in
  let num_field ev key =
    match Obs_json.member key ev with
    | Some (Obs_json.Int n) -> float_of_int n
    | Some (Obs_json.Float f) -> f
    | _ -> die "%s: event without numeric %S field" file key
  in
  let pids = Hashtbl.create 4 in
  let tids = Hashtbl.create 8 in
  (* per-tid (start, end, name) of every X slice *)
  let slices : (int, (float * float * string) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let name = str_field ev "name" in
      let ph = str_field ev "ph" in
      Hashtbl.replace pids (int_field ev "pid") ();
      let tid = int_field ev "tid" in
      Hashtbl.replace tids tid ();
      match ph with
      | "M" -> ()
      | "i" | "X" ->
        let ts = num_field ev "ts" in
        if ts < 0. then die "%s: %s event %S with negative ts" file ph name;
        if ph = "X" then begin
          let dur = num_field ev "dur" in
          if dur < 0. then die "%s: X event %S with negative dur" file name;
          match Hashtbl.find_opt slices tid with
          | Some l -> l := (ts, ts +. dur, name) :: !l
          | None -> Hashtbl.add slices tid (ref [ (ts, ts +. dur, name) ])
        end
      | other -> die "%s: event %S with unknown phase %S" file name other)
    events;
  if events = [] then die "%s: empty trace (no events recorded)" file;
  if Hashtbl.length pids <> 1 then
    die "%s: expected a single pid, found %d" file (Hashtbl.length pids);
  (* Sorted by start, longest first, each slice must either begin after the
     innermost open slice ends or end inside it. *)
  Hashtbl.iter
    (fun tid l ->
      let sorted =
        List.sort
          (fun (s1, e1, _) (s2, e2, _) ->
            match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
          !l
      in
      ignore
        (List.fold_left
           (fun open_ (s, e, name) ->
             let rec close = function
               | (_, oe, _) :: rest when oe <= s +. eps_us -> close rest
               | stack -> stack
             in
             match close open_ with
             | (_, oe, oname) :: _ when e > oe +. eps_us ->
               die "%s: tid %d: slice %S overlaps %S without nesting" file tid name oname
             | stack -> (s, e, name) :: stack)
           [] sorted))
    slices;
  Printf.printf "%s: trace valid (%d events, %d threads)\n" file (List.length events)
    (Hashtbl.length tids)

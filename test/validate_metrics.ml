(* CI helper for the @metrics-smoke alias: validate that a --metrics json
   document parses and carries the documented keys (DESIGN.md §9 schema).

   Usage: validate_metrics.exe FILE *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_metrics: " ^ m); exit 1) fmt

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else die "usage: validate_metrics FILE" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let doc =
    match Obs_json.parse text with
    | Ok doc -> doc
    | Error msg -> die "%s: invalid JSON: %s" file msg
  in
  if Obs_json.member "schema_version" doc <> Some (Obs_json.Int 1) then
    die "%s: schema_version 1 missing" file;
  if Obs_json.member "enabled" doc <> Some (Obs_json.Bool true) then
    die "%s: enabled flag missing or false" file;
  let counters =
    match Obs_json.member "counters" doc with
    | Some (Obs_json.Obj kvs) -> kvs
    | _ -> die "%s: counters object missing" file
  in
  (match List.assoc_opt "fsim.patterns" counters with
  | Some (Obs_json.Int n) when n > 0 -> ()
  | Some _ | None -> die "%s: counter fsim.patterns missing or not positive" file);
  (match Obs_json.member "histograms" doc with
  | Some (Obs_json.Obj _) -> ()
  | _ -> die "%s: histograms object missing" file);
  (match Obs_json.member "trace" doc with
  | Some (Obs_json.List _) -> ()
  | _ -> die "%s: trace list missing" file);
  Printf.printf "%s: metrics document valid\n" file

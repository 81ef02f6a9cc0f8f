(* Diff two bench-harness --json snapshots (BENCH_results.json) and decide
   whether the new one regresses on the old one.

   The aligner is deliberately forgiving about coverage — snapshots from
   --only / --only-circuits runs simply compare on their intersection —
   but strict about meaning: schema versions must match, and a snapshot
   that fails to parse, or a pair with nothing comparable at all, is
   "incomparable" (exit 2) rather than a vacuous pass. *)

type direction =
  | Lower_better
  | Higher_better

type metric = {
  m_key : string; (* --metrics name *)
  m_dir : direction;
  m_rows : snapshot -> snapshot -> (string * float * float) list;
      (* aligned (item, old, new) pairs *)
}

and snapshot = {
  sn_version : int;
  sn_mode : string;
  sn_circuits : (string * (float * float option)) list; (* gates2, paths *)
  sn_sections : (string * float) list; (* id -> wall seconds *)
  sn_speedups : (string * float) list; (* "kernel/circuit" -> speedup *)
  sn_cec : (string * string) list; (* "circuit/pair" -> verdict *)
  sn_counters : (string * float) list;
}

(* --- snapshot parsing ----------------------------------------------------- *)

let num = function
  | Obs_json.Int i -> Some (float_of_int i)
  | Obs_json.Float f -> Some f
  | _ -> None

let str = function Obs_json.String s -> Some s | _ -> None

let supported_versions = [ 1; 2 ]

let parse_snapshot ~name text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (name ^ ": " ^ m)) fmt in
  let* doc =
    match Obs_json.parse text with
    | Ok doc -> Ok doc
    | Error msg -> fail "invalid JSON: %s" msg
  in
  let* version =
    match Obs_json.member "schema_version" doc with
    | Some (Obs_json.Int v) ->
      if List.mem v supported_versions then Ok v
      else
        fail "unsupported schema_version %d (this tool understands %s)" v
          (String.concat ", " (List.map string_of_int supported_versions))
    | Some _ -> fail "schema_version is not an integer"
    | None -> fail "schema_version missing (not a bench --json snapshot?)"
  in
  let list_field key =
    match Obs_json.member key doc with
    | Some (Obs_json.List xs) -> xs
    | Some _ | None -> []
  in
  let mode =
    match Obs_json.member "mode" doc with Some (Obs_json.String m) -> m | _ -> ""
  in
  let circuits =
    List.filter_map
      (fun row ->
        match
          ( Option.bind (Obs_json.member "name" row) str,
            Option.bind (Obs_json.member "gates2" row) num )
        with
        | Some n, Some g ->
          Some (n, (g, Option.bind (Obs_json.member "paths" row) num))
        | _ -> None)
      (list_field "circuits")
  in
  let sections =
    List.filter_map
      (fun row ->
        match
          ( Option.bind (Obs_json.member "id" row) str,
            Option.bind (Obs_json.member "wall_seconds" row) num )
        with
        | Some id, Some w -> Some (id, w)
        | _ -> None)
      (list_field "sections")
  in
  let speedups =
    List.filter_map
      (fun row ->
        match
          ( Option.bind (Obs_json.member "kernel" row) str,
            Option.bind (Obs_json.member "circuit" row) str,
            Option.bind (Obs_json.member "speedup" row) num )
        with
        | Some k, Some c, Some s -> Some (k ^ "/" ^ c, s)
        | _ -> None)
      (list_field "speedups")
  in
  let cec =
    List.filter_map
      (fun row ->
        match
          ( Option.bind (Obs_json.member "circuit" row) str,
            Option.bind (Obs_json.member "pair" row) str,
            Option.bind (Obs_json.member "verdict" row) str )
        with
        | Some c, Some p, Some v -> Some (c ^ "/" ^ p, v)
        | _ -> None)
      (list_field "cec")
  in
  let counters =
    match
      Option.bind (Obs_json.member "metrics" doc) (Obs_json.member "counters")
    with
    | Some (Obs_json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) kvs
    | _ -> []
  in
  Ok
    {
      sn_version = version;
      sn_mode = mode;
      sn_circuits = circuits;
      sn_sections = sections;
      sn_speedups = speedups;
      sn_cec = cec;
      sn_counters = counters;
    }

(* --- metric definitions --------------------------------------------------- *)

let align old_rows new_rows =
  List.filter_map
    (fun (item, ov) ->
      match List.assoc_opt item new_rows with
      | Some nv -> Some (item, ov, nv)
      | None -> None)
    old_rows

(* Coverage counters: detections reported by the two random-pattern
   campaigns. More detected faults from the same harness = better. *)
let coverage_keys = [ "fsim.faults_dropped"; "pdf.faults_detected" ]

let metrics_table =
  [
    {
      m_key = "gates";
      m_dir = Lower_better;
      m_rows =
        (fun o n ->
          align
            (List.map (fun (k, (g, _)) -> (k, g)) o.sn_circuits)
            (List.map (fun (k, (g, _)) -> (k, g)) n.sn_circuits));
    };
    {
      m_key = "paths";
      m_dir = Lower_better;
      m_rows =
        (fun o n ->
          let paths_of c =
            List.filter_map
              (fun (k, (_, p)) -> Option.map (fun p -> (k, p)) p)
              c.sn_circuits
          in
          align (paths_of o) (paths_of n));
    };
    {
      m_key = "coverage";
      m_dir = Higher_better;
      m_rows =
        (fun o n ->
          let pick c =
            List.filter (fun (k, _) -> List.mem k coverage_keys) c.sn_counters
          in
          align (pick o) (pick n));
    };
    {
      m_key = "wall";
      m_dir = Lower_better;
      m_rows = (fun o n -> align o.sn_sections n.sn_sections);
    };
    {
      m_key = "speedup";
      m_dir = Higher_better;
      m_rows = (fun o n -> align o.sn_speedups n.sn_speedups);
    };
  ]

let default_metrics = List.map (fun m -> m.m_key) metrics_table @ [ "cec" ]

(* --- diffing -------------------------------------------------------------- *)

type status =
  | Clean
  | Regressions of int

(* Percentage by which [nv] is worse than [ov] (0 when equal or better).
   A metric appearing from, or collapsing to, zero counts as 100%. *)
let worsening dir ov nv =
  let worse = match dir with Lower_better -> nv -. ov | Higher_better -> ov -. nv in
  if worse <= 0. then 0.
  else if Float.abs ov > 0. then 100. *. worse /. Float.abs ov
  else 100.

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Table.int (int_of_float v)
  else Printf.sprintf "%.4f" v

let fmt_delta v =
  if Float.is_integer v && Float.abs v < 1e15 then
    let s = Table.int (int_of_float v) in
    if v >= 0. then "+" ^ s else s
  else Printf.sprintf "%+.4f" v

let diff ?(threshold = 5.) ?(metrics = default_metrics) ~old_name ~old_text
    ~new_name ~new_text () =
  let ( let* ) = Result.bind in
  let* () =
    match
      List.filter (fun k -> not (List.mem k default_metrics)) metrics
    with
    | [] -> Ok ()
    | bad ->
      Error
        (Printf.sprintf "unknown metric%s %s (known: %s)"
           (if List.length bad > 1 then "s" else "")
           (String.concat ", " bad)
           (String.concat ", " default_metrics))
  in
  let* old_sn = parse_snapshot ~name:old_name old_text in
  let* new_sn = parse_snapshot ~name:new_name new_text in
  let* () =
    if old_sn.sn_version <> new_sn.sn_version then
      Error
        (Printf.sprintf
           "schema versions differ (%s is v%d, %s is v%d): regenerate the \
            older snapshot before diffing"
           old_name old_sn.sn_version new_name new_sn.sn_version)
    else Ok ()
  in
  let t =
    Table.create
      ~title:(Printf.sprintf "bench-diff — %s vs %s" old_name new_name)
      ~columns:[ "metric"; "item"; "old"; "new"; "delta"; "worse%"; "status" ]
  in
  let compared = ref 0 in
  let regressions = ref 0 in
  let numeric m =
    List.iter
      (fun (item, ov, nv) ->
        incr compared;
        let w = worsening m.m_dir ov nv in
        let regressed = w > threshold in
        if regressed then incr regressions;
        let status =
          if regressed then "REGRESSION"
          else if w > 0. then "ok (within threshold)"
          else if (match m.m_dir with
                  | Lower_better -> nv < ov
                  | Higher_better -> nv > ov)
          then "improved"
          else "ok"
        in
        Table.add_row t
          [
            m.m_key; item; fmt_value ov; fmt_value nv; fmt_delta (nv -. ov);
            Printf.sprintf "%.1f" w; status;
          ])
      (m.m_rows old_sn new_sn)
  in
  List.iter (fun m -> if List.mem m.m_key metrics then numeric m) metrics_table;
  (* CEC verdicts are pass/fail, not a percentage: any aligned pair whose
     proof degrades from `equivalent' is a regression at every threshold. *)
  if List.mem "cec" metrics then
    List.iter
      (fun (item, ov, nv) ->
        incr compared;
        let regressed = ov = "equivalent" && nv <> "equivalent" in
        if regressed then incr regressions;
        Table.add_row t
          [
            "cec"; item; ov; nv;
            (if ov = nv then "=" else "changed");
            "-";
            (if regressed then "REGRESSION" else "ok");
          ])
      (List.filter_map
         (fun (item, ov) ->
           Option.map (fun nv -> (item, ov, nv)) (List.assoc_opt item new_sn.sn_cec))
         old_sn.sn_cec);
  if !compared = 0 then
    Error
      (Printf.sprintf
         "nothing comparable between %s and %s for metrics %s (disjoint \
          circuit/section sets?)"
         old_name new_name (String.concat "," metrics))
  else
    let summary =
      Printf.sprintf
        "%d comparison%s, %d regression%s (threshold %.1f%%, old mode %S, new \
         mode %S)\n"
        !compared
        (if !compared = 1 then "" else "s")
        !regressions
        (if !regressions = 1 then "" else "s")
        threshold old_sn.sn_mode new_sn.sn_mode
    in
    Ok
      ( Table.render t ^ summary,
        if !regressions = 0 then Clean else Regressions !regressions )

let diff_files ?threshold ?metrics old_path new_path =
  let read path =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  let ( let* ) = Result.bind in
  let* old_text = read old_path in
  let* new_text = read new_path in
  diff ?threshold ?metrics ~old_name:old_path ~old_text ~new_name:new_path ~new_text ()

let exit_code = function
  | Ok (_, Clean) -> 0
  | Ok (_, Regressions _) -> 1
  | Error _ -> 2

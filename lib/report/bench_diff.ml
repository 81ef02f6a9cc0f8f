(* Diff two bench-harness --json snapshots (BENCH_results.json) and decide
   whether the new one regresses on the old one.

   A snapshot (schema 3) is a list of sections. Each holds rows keyed by
   their first field and declares two kinds of key: [gate_keys], booleans
   every row must hold true, and [exact_keys], values a later snapshot must
   repeat. One evaluator applies the same rules to every section, at any
   threshold, and the threshold metrics then compare the numbers that may
   drift. A snapshot that fails to parse, or a pair that differs in schema
   version, mode or circuit scope, is "incomparable" (exit 2) rather than a
   vacuous pass. *)

type section = {
  id : string;
  wall : float option;
  gate_keys : string list;
  exact_keys : string list;
  rows : (string * (string * Obs_json.t) list) list; (* first field's value, fields *)
  skipped : string option;
}

type snapshot = {
  mode : Obs_json.t;
  only_circuits : Obs_json.t;
  sections : section list;
  counters : (string * float) list;
}

(* --- snapshot parsing ----------------------------------------------------- *)

let schema_version = 3

let num = function
  | Obs_json.Int i -> Some (float_of_int i)
  | Obs_json.Float f -> Some f
  | _ -> None

let text = function
  | Obs_json.String s -> s
  | Obs_json.Int i -> Table.int i
  | v -> Obs_json.to_string v

let member key doc = Option.value ~default:Obs_json.Null (Obs_json.member key doc)

let list = function Obs_json.List xs -> xs | _ -> []

let strings v = List.filter_map (function Obs_json.String s -> Some s | _ -> None) (list v)

let parse_section v =
  match member "id" v with
  | Obs_json.String id ->
    Some
      {
        id;
        wall = num (member "wall_seconds" v);
        gate_keys = strings (member "gate_keys" v);
        exact_keys = strings (member "exact_keys" v);
        rows =
          List.filter_map
            (function
              | Obs_json.Obj ((_, key) :: _ as fields) -> Some (text key, fields)
              | _ -> None)
            (list (member "rows" v));
        skipped = (match member "skipped" v with Obs_json.String r -> Some r | _ -> None);
      }
  | _ -> None

let parse_snapshot doc =
  {
    mode = member "mode" doc;
    only_circuits = member "only_circuits" doc;
    sections = List.filter_map parse_section (list (member "sections" doc));
    counters =
      (match member "counters" (member "metrics" doc) with
      | Obs_json.Obj kvs ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) kvs
      | _ -> []);
  }

let parse_version ~name text =
  let fail fmt = Printf.ksprintf (fun m -> Error (name ^ ": " ^ m)) fmt in
  match Obs_json.parse text with
  | Error msg -> fail "invalid JSON: %s" msg
  | Ok doc -> (
    match Obs_json.member "schema_version" doc with
    | Some (Obs_json.Int v) -> Ok (v, doc)
    | Some _ -> fail "schema_version is not an integer"
    | None -> fail "schema_version missing (not a bench --json snapshot?)")

(* --- threshold metrics ---------------------------------------------------- *)

type direction =
  | Lower_better
  | Higher_better

(* A row field named [key] that no section declares exact: the sizes of
   the bench's generated inputs. Exact keys are compared by the rules. *)
let field key sn =
  List.concat_map
    (fun s ->
      if List.mem key s.exact_keys then []
      else
        List.filter_map
          (fun (k, fields) ->
            Option.map (fun v -> (s.id ^ "/" ^ k, v)) (Option.bind (List.assoc_opt key fields) num))
          s.rows)
    sn.sections

(* Coverage counters: detections reported by the two random-pattern
   campaigns. More detected faults from the same harness = better. *)
let coverage_keys = [ "fsim.faults_dropped"; "pdf.faults_detected" ]

let metrics_table =
  [
    ("gates", Lower_better, field "gates");
    ("paths", Lower_better, field "paths");
    ( "coverage",
      Higher_better,
      fun sn -> List.filter (fun (k, _) -> List.mem k coverage_keys) sn.counters );
    ( "wall",
      Lower_better,
      fun sn -> List.filter_map (fun s -> Option.map (fun w -> (s.id, w)) s.wall) sn.sections );
  ]

let default_metrics = List.map (fun (k, _, _) -> k) metrics_table

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

let union a b = a @ List.filter (fun k -> not (List.mem k a)) b

let diff ?(threshold = 5.) ?(metrics = default_metrics) ~old_name ~old_text
    ~new_name ~new_text () =
  let ( let* ) = Result.bind in
  let* () =
    match List.filter (fun k -> not (List.mem k default_metrics)) metrics with
    | [] -> Ok ()
    | bad ->
      Error
        (Printf.sprintf "unknown metric%s %s (known: %s)"
           (if List.length bad > 1 then "s" else "")
           (String.concat ", " bad)
           (String.concat ", " default_metrics))
  in
  let* old_version, old_doc = parse_version ~name:old_name old_text in
  let* new_version, new_doc = parse_version ~name:new_name new_text in
  let* () =
    if old_version <> new_version then
      Error
        (Printf.sprintf
           "schema versions differ (%s is v%d, %s is v%d): regenerate the \
            older snapshot before diffing"
           old_name old_version new_name new_version)
    else if old_version <> schema_version then
      Error
        (Printf.sprintf "unsupported schema_version %d (this tool understands %d)"
           old_version schema_version)
    else Ok ()
  in
  let old_sn = parse_snapshot old_doc and new_sn = parse_snapshot new_doc in
  let* () =
    let scope what o n =
      if o = n then Ok ()
      else
        Error
          (Printf.sprintf "%s differs (%s has %s, %s has %s): rerun at the baseline's scope"
             what old_name (Obs_json.to_string o) new_name (Obs_json.to_string n))
    in
    let* () = scope "mode" old_sn.mode new_sn.mode in
    scope "only_circuits" old_sn.only_circuits new_sn.only_circuits
  in
  let t =
    Table.create
      ~title:(Printf.sprintf "bench-diff — %s vs %s" old_name new_name)
      ~columns:[ "metric"; "item"; "old"; "new"; "delta"; "worse%"; "status" ]
  in
  let compared = ref 0 in
  let regressions = ref 0 in
  let ok ~checks cells =
    compared := !compared + checks;
    Table.add_row t (cells @ [ "-"; "-"; "ok" ])
  in
  let regress metric item ov nv =
    incr compared;
    incr regressions;
    Table.add_row t [ metric; item; ov; nv; "-"; "-"; "REGRESSION" ]
  in
  let value = function Some v -> text v | None -> "missing" in
  (* The rules: every declared gate of the new snapshot (or of the old one,
     for the same section) is present and true in every new row; every
     section and row of the old snapshot is in the new one; every exact
     value of an old row is repeated, and every declared exact key is
     recorded. *)
  List.iter
    (fun os ->
      if not (List.exists (fun s -> s.id = os.id) new_sn.sections) then
        regress "section" os.id "present" "missing")
    old_sn.sections;
  List.iter
    (fun ns ->
      let os = List.find_opt (fun s -> s.id = ns.id) old_sn.sections in
      let old_rows = match os with Some s -> s.rows | None -> [] in
      let gates = union ns.gate_keys (match os with Some s -> s.gate_keys | None -> []) in
      let exact = union ns.exact_keys (match os with Some s -> s.exact_keys | None -> []) in
      (match ns.skipped with
      | Some reason -> Table.add_row t [ "section"; ns.id; "-"; "skipped"; "-"; "-"; reason ]
      | None ->
        if gates <> [] && ns.rows = [] then
          regress "gate" (ns.id ^ ": " ^ String.concat ", " gates) "true" "no rows");
      List.iter
        (fun (key, _) ->
          if not (List.mem_assoc key ns.rows) then
            regress "row" (ns.id ^ "/" ^ key) "present" "missing")
        old_rows;
      List.iter
        (fun (key, fields) ->
          let item = ns.id ^ "/" ^ key in
          let old_fields = Option.value ~default:[] (List.assoc_opt key old_rows) in
          let good_gates, bad_gates =
            List.partition (fun g -> List.assoc_opt g fields = Some (Obs_json.Bool true)) gates
          in
          List.iter
            (fun g -> regress "gate" (item ^ ": " ^ g) "true" (value (List.assoc_opt g fields)))
            bad_gates;
          if good_gates <> [] then
            ok ~checks:(List.length good_gates)
              [ "gate"; item ^ ": " ^ String.concat ", " good_gates; "true"; "true" ];
          let equal = ref 0 in
          List.iter
            (fun x ->
              match (List.assoc_opt x old_fields, List.assoc_opt x fields) with
              | Some a, Some b when a = b -> incr equal
              | Some a, b -> regress "exact" (item ^ ": " ^ x) (text a) (value b)
              | None, None when List.mem x ns.exact_keys ->
                regress "exact" (item ^ ": " ^ x) "-" "missing"
              | None, _ -> ())
            exact;
          if !equal > 0 then
            ok ~checks:!equal [ "exact"; Printf.sprintf "%s (%d keys)" item !equal; "="; "=" ])
        ns.rows)
    new_sn.sections;
  List.iter
    (fun (key, dir, select) ->
      if List.mem key metrics then
        let news = select new_sn in
        List.iter
          (fun (item, ov) ->
            match List.assoc_opt item news with
            | None -> ()
            | Some nv ->
              incr compared;
              let w = worsening dir ov nv in
              let regressed = w > threshold in
              if regressed then incr regressions;
              let status =
                if regressed then "REGRESSION"
                else if w > 0. then "ok (within threshold)"
                else if (match dir with Lower_better -> nv < ov | Higher_better -> nv > ov)
                then "improved"
                else "ok"
              in
              Table.add_row t
                [
                  key; item; fmt_value ov; fmt_value nv; fmt_delta (nv -. ov);
                  Printf.sprintf "%.1f" w; status;
                ])
          (select old_sn))
    metrics_table;
  if !compared = 0 then
    Error
      (Printf.sprintf "nothing comparable between %s and %s (no sections or metrics %s)"
         old_name new_name (String.concat "," metrics))
  else
    let summary =
      Printf.sprintf "%d comparison%s, %d regression%s (threshold %.1f%%, mode %s)\n"
        !compared
        (if !compared = 1 then "" else "s")
        !regressions
        (if !regressions = 1 then "" else "s")
        threshold (Obs_json.to_string new_sn.mode)
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

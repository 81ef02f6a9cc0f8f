type funnel = {
  candidates : int;
  identified : int;
  verified : int;
  committed : int;
}

type phase = { ph_name : string; ph_calls : int; ph_wall : float }

type t = {
  path : string;
  cmd : string;
  dropped : int;
  truncated : bool;
  wall_s : float;
  counters : (string * int) list; (* footer snapshot; [] when truncated *)
  evs : Obs_json.t list; (* event lines in file order *)
  spans : (string, int * float) Hashtbl.t;
  (* Tallies keyed by a qualified label, e.g. "sat_escalation/redundant",
     "cec_check/equivalent". *)
  tallies : (string, int) Hashtbl.t;
  accepts : int;
  rollbacks : int;
  gain : int; (* summed accepted gain *)
  samples : int;
  minor_words : float;
  major_words : float;
  compactions : int;
  peak_rss_kb : int;
}

let supported_version = 1

(* --- field access --------------------------------------------------------- *)

let str_field k j =
  match Obs_json.member k j with Some (Obs_json.String s) -> Some s | _ -> None

let int_field k j =
  match Obs_json.member k j with
  | Some (Obs_json.Int i) -> Some i
  | Some (Obs_json.Float f) -> Some (int_of_float f)
  | _ -> None

let float_field k j =
  match Obs_json.member k j with
  | Some (Obs_json.Float f) -> Some f
  | Some (Obs_json.Int i) -> Some (float_of_int i)
  | _ -> None

(* --- loading -------------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        Ok (List.rev !lines))

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tally t key = Option.value ~default:0 (Hashtbl.find_opt t.tallies key)

let load path =
  match read_lines path with
  | Error msg -> Error msg (* Sys_error already names the file *)
  | Ok [] -> Error (Printf.sprintf "%s: empty file" path)
  | Ok (header :: rest) -> (
    match Obs_json.parse header with
    | Error _ -> Error (Printf.sprintf "%s: not a journal (bad header)" path)
    | Ok h -> (
      match (str_field "ev" h, int_field "journal_version" h) with
      | Some "journal_begin", Some v when v = supported_version ->
        let cmd = Option.value ~default:"?" (str_field "cmd" h) in
        let empty =
          {
            path;
            cmd;
            dropped = 0;
            truncated = true;
            wall_s = 0.;
            counters = [];
            evs = [];
            spans = Hashtbl.create 16;
            tallies = Hashtbl.create 16;
            accepts = 0;
            rollbacks = 0;
            gain = 0;
            samples = 0;
            minor_words = 0.;
            major_words = 0.;
            compactions = 0;
            peak_rss_kb = 0;
          }
        in
        (* [read n] starts at line [n] of the file. Only the final line may
           be cut short (a crash mid-write): an unparseable line
           anywhere else, a line with no event kind, or anything after the
           footer means the file was damaged, and a report built from the
           lines before it would pass for the whole run. *)
        let bad n msg = Error (Printf.sprintf "%s: line %d: %s" path n msg) in
        let rec read n r = function
          | [] -> Ok r
          | line :: more -> (
            match Obs_json.parse line with
            | Error _ when more = [] -> Ok r (* torn tail: keep what we have *)
            | Error msg -> bad n ("unparseable event: " ^ msg)
            | Ok j -> (
              match str_field "ev" j with
              | None -> bad n "event without an \"ev\" kind"
              | Some "journal_end" ->
                let counters =
                  match Obs_json.member "counters" j with
                  | Some (Obs_json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        match v with
                        | Obs_json.Int n -> Some (k, n)
                        | _ -> None)
                      kvs
                  | _ -> []
                in
                if more <> [] then bad (n + 1) "content after the journal_end footer"
                else
                  Ok
                    {
                      r with
                      truncated = false;
                      dropped = Option.value ~default:0 (int_field "dropped" j);
                      wall_s = Option.value ~default:r.wall_s (float_field "wall_s" j);
                      counters;
                    }
              | Some kind ->
                let r = { r with evs = j :: r.evs } in
                (* Truncated runs have no footer: keep the high-water
                   timestamp as a wall-time stand-in. *)
                let r =
                  match float_field "ts" j with
                  | Some ts when ts > r.wall_s -> { r with wall_s = ts }
                  | _ -> r
                in
                let r =
                  match kind with
                  | "span" ->
                    let name = Option.value ~default:"?" (str_field "name" j) in
                    let dur = Option.value ~default:0. (float_field "dur_s" j) in
                    let calls, wall =
                      Option.value ~default:(0, 0.)
                        (Hashtbl.find_opt r.spans name)
                    in
                    Hashtbl.replace r.spans name (calls + 1, wall +. dur);
                    r
                  | "runtime_sample" ->
                    {
                      r with
                      samples = r.samples + 1;
                      minor_words =
                        r.minor_words
                        +. Option.value ~default:0. (float_field "minor_words_d" j);
                      major_words =
                        r.major_words
                        +. Option.value ~default:0. (float_field "major_words_d" j);
                      compactions =
                        r.compactions
                        + Option.value ~default:0 (int_field "compactions_d" j);
                      peak_rss_kb =
                        max r.peak_rss_kb
                          (Option.value ~default:0 (int_field "maxrss_kb" j));
                    }
                  | "splice_accept" ->
                    {
                      r with
                      accepts = r.accepts + 1;
                      gain = r.gain + Option.value ~default:0 (int_field "gain" j);
                    }
                  | "splice_rollback" -> { r with rollbacks = r.rollbacks + 1 }
                  | "sat_escalation" ->
                    let o = Option.value ~default:"?" (str_field "outcome" j) in
                    bump r.tallies ("sat_escalation/" ^ o) 1;
                    r
                  | "cec_check" ->
                    let v = Option.value ~default:"?" (str_field "verdict" j) in
                    bump r.tallies ("cec_check/" ^ v) 1;
                    r
                  | "redundancy_proof" ->
                    let m = Option.value ~default:"?" (str_field "method" j) in
                    bump r.tallies ("redundancy_proof/" ^ m) 1;
                    r
                  | kind ->
                    (* podem_abort, cec_unknown, the per-lookup identify
                       events of older journals, and any event kind a
                       newer writer may add. *)
                    bump r.tallies kind 1;
                    r
                in
                read (n + 1) r more))
        in
        Result.map (fun r -> { r with evs = List.rev r.evs }) (read 2 empty rest)
      | Some "journal_begin", Some v ->
        Error (Printf.sprintf "%s: unsupported journal_version %d" path v)
      | _ -> Error (Printf.sprintf "%s: not a journal (no journal_begin)" path)))

(* --- accessors ------------------------------------------------------------ *)

let path t = t.path
let cmd t = t.cmd
let events t = List.length t.evs
let dropped t = t.dropped
let truncated t = t.truncated
let wall_s t = t.wall_s

let counter t name =
  Option.value ~default:0 (List.assoc_opt name t.counters)

let funnel t =
  {
    candidates = counter t "engine.candidates";
    identified = counter t "engine.realised";
    verified = t.accepts + t.rollbacks;
    committed = t.accepts;
  }

let funnel_ok t =
  let f = funnel t in
  f.committed <= f.verified
  && (t.truncated
     || (f.verified <= f.identified && f.identified <= f.candidates))

(* The engine's phase timers in seconds, from the footer's counters:
   [enumerate] and [score] per batch, then [score]'s per-candidate split. *)
let engine_phases = [ "enumerate"; "score" ]
let score_split = [ "extract"; "identify"; "cost" ]
let engine_phase_s t name = float_of_int (counter t ("engine." ^ name ^ "_ns")) /. 1e9

let phases t =
  Hashtbl.fold
    (fun name (calls, wall) acc ->
      { ph_name = name; ph_calls = calls; ph_wall = wall } :: acc)
    t.spans []
  |> List.sort (fun a b ->
         match Float.compare b.ph_wall a.ph_wall with
         | 0 -> String.compare a.ph_name b.ph_name
         | c -> c)

(* Identification sources from the footer's cache counters: a miss is a
   fresh identification, and a hit was answered by this run or by the disk
   store. *)
let sources t =
  let disk = counter t "idcache.disk_hits" in
  [
    ("fresh", counter t "idcache.misses");
    ("run_cache", counter t "idcache.hits" - disk);
    ("idcache_raw", disk);
  ]

let tallies t prefix labels =
  List.map (fun l -> (l, tally t (prefix ^ "/" ^ l))) labels

(* --- text rendering ------------------------------------------------------- *)

let pct part total = if total <= 0. then 0. else 100. *. part /. total

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "== run report: %s ==\ncmd %s   events %s   dropped %s   wall %.3fs%s\n"
       t.path t.cmd (Table.int (events t)) (Table.int t.dropped) t.wall_s
       (if t.truncated then "   [TRUNCATED: no footer]" else ""));
  (match phases t with
  | [] -> ()
  | ps ->
    let tbl =
      Table.create ~title:"phases (span closes)"
        ~columns:[ "phase"; "calls"; "wall s"; "% wall" ]
    in
    List.iter
      (fun p ->
        Table.add_row tbl
          [
            p.ph_name;
            Table.int p.ph_calls;
            Printf.sprintf "%.4f" p.ph_wall;
            Printf.sprintf "%.1f" (pct p.ph_wall t.wall_s);
          ])
      ps;
    Buffer.add_string b (Table.render tbl));
  if t.samples > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "runtime: %d samples, %.3g minor words, %.3g major words, %d compactions, peak rss %s kB\n"
         t.samples t.minor_words t.major_words t.compactions
         (Table.int t.peak_rss_kb));
  let f = funnel t in
  (* Without the footer's counters a funnel would start from zeros. *)
  if (not t.truncated) && f.candidates + f.identified + f.verified + f.committed > 0
  then
    Buffer.add_string b
      (Printf.sprintf
         "funnel: %s candidates -> %s identified -> %s verified -> %s committed (gain %s)%s\n"
         (Table.int f.candidates) (Table.int f.identified)
         (Table.int f.verified) (Table.int f.committed) (Table.int t.gain)
         (if funnel_ok t then "" else "   [FUNNEL VIOLATION]"));
  let enumerate_s = engine_phase_s t "enumerate" and score_s = engine_phase_s t "score" in
  if enumerate_s +. score_s > 0. then
    Buffer.add_string b
      (Printf.sprintf "engine phases: enumerate %.3fs, score %.3fs (%.1f%% of wall)\n"
         enumerate_s score_s (pct (enumerate_s +. score_s) t.wall_s));
  if List.exists (fun p -> engine_phase_s t p > 0.) score_split then
    Buffer.add_string b
      (Printf.sprintf "score split: %s\n"
         (String.concat ", "
            (List.map (fun p -> Printf.sprintf "%s %.3fs" p (engine_phase_s t p)) score_split)));
  let count_table title rows =
    let rows = List.filter (fun (_, n) -> n <> 0) rows in
    if rows <> [] then begin
      let tbl = Table.create ~title ~columns:[ "kind"; "count" ] in
      List.iter (fun (l, n) -> Table.add_row tbl [ l; Table.int n ]) rows;
      Buffer.add_string b (Table.render tbl)
    end
  in
  count_table "identification sources" (sources t);
  count_table "sat escalations" (tallies t "sat_escalation" [ "test"; "redundant"; "unknown" ]);
  count_table "redundancy proofs" (tallies t "redundancy_proof" [ "podem"; "sat" ]);
  count_table "cec checks" (tallies t "cec_check" [ "equivalent"; "counterexample"; "unknown" ]);
  let misc =
    List.filter_map
      (fun k ->
        let n = tally t k in
        if n = 0 then None else Some (Printf.sprintf "%s %s" k (Table.int n)))
      [ "podem_abort"; "cec_unknown" ]
  in
  if misc <> [] then
    Buffer.add_string b (String.concat ", " misc ^ "\n");
  Buffer.contents b

(* --- JSON ----------------------------------------------------------------- *)

let counts_json rows = Obs_json.Obj (List.map (fun (l, n) -> (l, Obs_json.Int n)) rows)

let run_json t =
  let f = funnel t in
  Obs_json.Obj
    [
      ("path", Obs_json.String t.path);
      ("cmd", Obs_json.String t.cmd);
      ("events", Obs_json.Int (events t));
      ("dropped", Obs_json.Int t.dropped);
      ("truncated", Obs_json.Bool t.truncated);
      ("wall_s", Obs_json.Float t.wall_s);
      ( "funnel",
        Obs_json.Obj
          [
            ("candidates", Obs_json.Int f.candidates);
            ("identified", Obs_json.Int f.identified);
            ("verified", Obs_json.Int f.verified);
            ("committed", Obs_json.Int f.committed);
            ("gain", Obs_json.Int t.gain);
            ("funnel_ok", Obs_json.Bool (funnel_ok t));
          ] );
      ( "engine_phases",
        Obs_json.Obj
          (List.map
             (fun p -> (p ^ "_s", Obs_json.Float (engine_phase_s t p)))
             (engine_phases @ score_split)) );
      ( "phases",
        Obs_json.List
          (List.map
             (fun p ->
               Obs_json.Obj
                 [
                   ("name", Obs_json.String p.ph_name);
                   ("calls", Obs_json.Int p.ph_calls);
                   ("wall_s", Obs_json.Float p.ph_wall);
                 ])
             (phases t)) );
      ( "runtime",
        Obs_json.Obj
          [
            ("samples", Obs_json.Int t.samples);
            ("minor_words", Obs_json.Float t.minor_words);
            ("major_words", Obs_json.Float t.major_words);
            ("compactions", Obs_json.Int t.compactions);
            ("peak_rss_kb", Obs_json.Int t.peak_rss_kb);
          ] );
      ("identify", counts_json (sources t));
      ( "sat_escalations",
        counts_json (tallies t "sat_escalation" [ "test"; "redundant"; "unknown" ]) );
      ("redundancy_proofs", counts_json (tallies t "redundancy_proof" [ "podem"; "sat" ]));
      ( "cec_checks",
        counts_json (tallies t "cec_check" [ "equivalent"; "counterexample"; "unknown" ])
      );
      ("podem_aborts", Obs_json.Int (tally t "podem_abort"));
    ]

let to_json_value runs =
  Obs_json.Obj
    [
      ("report_version", Obs_json.Int 1);
      ("funnel_ok", Obs_json.Bool (List.for_all funnel_ok runs));
      ("runs", Obs_json.List (List.map run_json runs));
    ]

(* --- diff ----------------------------------------------------------------- *)

let diff a b =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== report diff: %s (A) vs %s (B) ==\n" a.path b.path);
  let tbl =
    Table.create ~title:"run comparison" ~columns:[ "metric"; "A"; "B"; "delta" ]
  in
  let delta av bv =
    if av = 0. then if bv = 0. then "-" else "new"
    else Printf.sprintf "%+.1f%%" (100. *. (bv -. av) /. av)
  in
  let frow name av bv fmt =
    Table.add_row tbl [ name; fmt av; fmt bv; delta av bv ]
  in
  let irow name av bv =
    frow name (float_of_int av) (float_of_int bv) (fun v ->
        Table.int (int_of_float v))
  in
  frow "wall_s" a.wall_s b.wall_s (Printf.sprintf "%.4f");
  irow "events" (events a) (events b);
  irow "dropped" a.dropped b.dropped;
  let fa = funnel a and fb = funnel b in
  irow "candidates" fa.candidates fb.candidates;
  irow "identified" fa.identified fb.identified;
  irow "verified" fa.verified fb.verified;
  irow "committed" fa.committed fb.committed;
  irow "gain" a.gain b.gain;
  List.iter
    (fun p ->
      frow (p ^ "_s") (engine_phase_s a p) (engine_phase_s b p) (Printf.sprintf "%.4f"))
    (engine_phases @ score_split);
  frow "minor_words" a.minor_words b.minor_words (Printf.sprintf "%.3g");
  frow "major_words" a.major_words b.major_words (Printf.sprintf "%.3g");
  irow "peak_rss_kb" a.peak_rss_kb b.peak_rss_kb;
  Buffer.add_string buf (Table.render tbl);
  let names =
    List.sort_uniq String.compare
      (List.map (fun p -> p.ph_name) (phases a)
      @ List.map (fun p -> p.ph_name) (phases b))
  in
  if names <> [] then begin
    let ptbl =
      Table.create ~title:"phase wall s"
        ~columns:[ "phase"; "A"; "B"; "delta" ]
    in
    List.iter
      (fun name ->
        let wall t =
          match Hashtbl.find_opt t.spans name with Some (_, w) -> w | None -> 0.
        in
        let av = wall a and bv = wall b in
        Table.add_row ptbl
          [
            name;
            Printf.sprintf "%.4f" av;
            Printf.sprintf "%.4f" bv;
            delta av bv;
          ])
      names;
    Buffer.add_string buf (Table.render ptbl)
  end;
  Buffer.contents buf

(* --- Chrome trace ----------------------------------------------------------- *)

let to_chrome t =
  let us s = Obs_json.Float (s *. 1e6) in
  let dom j = Option.value ~default:0 (int_field "dom" j) in
  let trace_event ~tid name ph ts rest =
    Obs_json.Obj
      ([
         ("name", Obs_json.String name);
         ("ph", Obs_json.String ph);
         ("ts", us ts);
         ("pid", Obs_json.Int 1);
         ("tid", Obs_json.Int tid);
       ]
      @ rest)
  in
  let event j =
    let ts = Option.value ~default:0. (float_field "ts" j) in
    match str_field "ev" j with
    | Some "span" ->
      (* [ts] is the reading that ended [dur_s]; clamp a start that falls
         before the journal opened. *)
      let dur = Option.value ~default:0. (float_field "dur_s" j) in
      let start = max 0. (ts -. dur) in
      trace_event ~tid:(dom j)
        (Option.value ~default:"?" (str_field "name" j))
        "X" start
        [ ("dur", us (ts -. start)) ]
    | kind ->
      let own =
        match j with
        | Obs_json.Obj kvs ->
          List.filter (fun (k, _) -> not (List.mem k [ "ev"; "seq"; "ts"; "dom" ])) kvs
        | _ -> []
      in
      trace_event ~tid:(dom j) (Option.value ~default:"?" kind) "i" ts
        [ ("s", Obs_json.String "t"); ("args", Obs_json.Obj own) ]
  in
  let thread d =
    Obs_json.Obj
      [
        ("name", Obs_json.String "thread_name");
        ("ph", Obs_json.String "M");
        ("pid", Obs_json.Int 1);
        ("tid", Obs_json.Int d);
        ("args", Obs_json.Obj [ ("name", Obs_json.String (Printf.sprintf "domain%d" d)) ]);
      ]
  in
  let dropped =
    if t.dropped = 0 then []
    else
      [
        trace_event ~tid:0 "journal.dropped" "i" t.wall_s
          [ ("s", Obs_json.String "g"); ("args", Obs_json.Obj [ ("count", Obs_json.Int t.dropped) ]) ];
      ]
  in
  Obs_json.List
    (List.map thread (List.sort_uniq Int.compare (List.map dom t.evs))
    @ List.map event t.evs @ dropped)

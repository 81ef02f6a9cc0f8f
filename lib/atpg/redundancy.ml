type report = {
  removed : int;
  proved_redundant_sat : int;
  aborted : int;
  passes : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "redundancy removal: %d removed (%d SAT-proved), %d unresolved, %d passes"
    r.removed r.proved_redundant_sat r.aborted r.passes

type candidates = {
  untestable : Fault.t list;
  sat_redundant : Fault.t list;
  unresolved : (Fault.t * int) list;
}

let find_untestable ?(limits = Limits.default) ?(sat = true)
    ?(prefilter_patterns = 4096) ~seed c =
  let survivors =
    Campaign.survivors
      { Campaign.default with max_patterns = prefilter_patterns; seed }
      c
  in
  let untestable = ref [] in
  let aborted = ref [] in
  List.iter
    (fun f ->
      match
        Podem.generate ~backtrack_limit:limits.Limits.podem_backtracks c f
      with
      | Podem.Test _ -> ()
      | Podem.Untestable -> untestable := f :: !untestable
      | Podem.Aborted -> aborted := f :: !aborted)
    survivors;
  let aborted = List.rev !aborted in
  if sat then begin
    let esc = Sat_atpg.escalate ~limits c aborted in
    {
      untestable = List.rev !untestable;
      sat_redundant = esc.Sat_atpg.redundant;
      unresolved = esc.Sat_atpg.unknown;
    }
  end
  else
    {
      untestable = List.rev !untestable;
      sat_redundant = [];
      unresolved =
        List.map (fun f -> (f, limits.Limits.podem_backtracks)) aborted;
    }

let tie_off c (f : Fault.t) =
  let const = Circuit.add_const c f.Fault.stuck in
  (match f.Fault.site with
  | Fault.Stem u -> Circuit.retarget c ~from_:u ~to_:const
  | Fault.Branch (g, pin) ->
    let fins = Array.copy (Circuit.fanins c g) in
    fins.(pin) <- const;
    Circuit.set_fanins c g fins);
  Cleanup.simplify c

let structurally_valid c (f : Fault.t) =
  match f.Fault.site with
  | Fault.Stem u -> Circuit.is_alive c u
  | Fault.Branch (g, pin) -> Circuit.is_alive c g && pin < Circuit.fanin_count c g

let remove ?(limits = Limits.default) ?(sat = true) ?prefilter_patterns ~seed c =
  let removed = ref 0 in
  let removed_sat = ref 0 in
  let aborted = ref 0 in
  let passes = ref 0 in
  let continue = ref true in
  while !continue do
    incr passes;
    let found = find_untestable ~limits ~sat ?prefilter_patterns ~seed c in
    aborted := List.length found.unresolved;
    let removed_before = !removed in
    (match found.untestable @ found.sat_redundant with
    | [] -> ()
    | candidates ->
      (* Removing one redundancy can make another candidate testable, so
         each is re-proved against the current circuit right before its
         tie-off. An untestability proof on the current circuit justifies the
         tie-off even if earlier removals rewired the site. PODEM aborts on
         the re-proof escalate to a fresh SAT engine (the mutations above
         invalidate any shared encoding), whose exact verdict either
         justifies the tie-off or returns the fault to the undecided pool. *)
      List.iter
        (fun f ->
          if structurally_valid c f then
            match
              Podem.generate ~backtrack_limit:limits.Limits.podem_backtracks c
                f
            with
            | Podem.Untestable ->
              tie_off c f;
              if Obs.Journal.enabled () then
                Obs.Journal.emit "redundancy_proof"
                  (Fault.journal_fields f
                  @ [ ("method", Obs_json.String "podem") ]);
              incr removed
            | Podem.Test _ -> ()
            | Podem.Aborted ->
              if sat then begin
                let engine = Sat_atpg.create ~limits c in
                match Sat_atpg.run engine f with
                | Sat_atpg.Redundant ->
                  tie_off c f;
                  if Obs.Journal.enabled () then
                    Obs.Journal.emit "redundancy_proof"
                      (Fault.journal_fields f
                      @ [ ("method", Obs_json.String "sat") ]);
                  incr removed;
                  incr removed_sat
                | Sat_atpg.Test _ -> ()
                | Sat_atpg.Unknown _ -> incr aborted
              end
              else incr aborted)
        candidates);
    (* A pass that removes nothing leaves the circuit as it was, so the next
       pass would find the same candidates and fail on them again. *)
    if !removed = removed_before then continue := false
  done;
  {
    removed = !removed;
    proved_redundant_sat = !removed_sat;
    aborted = !aborted;
    passes = !passes;
  }

let make_irredundant ?limits ?sat ?prefilter_patterns ~seed c =
  let work = Circuit.copy c in
  let report = remove ?limits ?sat ?prefilter_patterns ~seed work in
  let fresh, _ = Circuit.compact work in
  (fresh, report)

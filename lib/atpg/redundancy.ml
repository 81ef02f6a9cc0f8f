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

(* Test vectors kept across classifications (DESIGN.md §19), 64 to a
   batch: bit [k] of word [i] is input [i] of the batch's [k]th vector.
   The newest batch, at the head, may be partly filled. *)
type batch = { words : int64 array; mutable count : int }
type tests = { inputs : int; mutable batches : batch list }

let tests c = { inputs = Circuit.num_inputs c; batches = [] }

let keep store v =
  let b =
    match store.batches with
    | b :: _ when b.count < 64 -> b
    | _ ->
      let b = { words = Array.make store.inputs 0L; count = 0 } in
      store.batches <- b :: store.batches;
      b
  in
  let bit = Int64.shift_left 1L b.count in
  Array.iteri (fun i x -> if x then b.words.(i) <- Int64.logor b.words.(i) bit) v;
  b.count <- b.count + 1

let iter_batches store f =
  List.iter
    (fun b ->
      f b.words (if b.count = 64 then -1L else Int64.pred (Int64.shift_left 1L b.count)))
    (List.rev store.batches)

(* The items of [items] whose fault no vector of [store] detects on [c], in
   order. A vector detects a fault on [c] whatever circuit it was generated
   for, so each dropped fault is testable. *)
let undetected store c ~fault items =
  match (store.batches, items) with
  | [], _ | _, [] -> items
  | _ ->
    let sim = Fsim.create (Compiled.of_circuit c) in
    let faults = Array.of_list (List.map fault items) in
    let alive = Array.make (Array.length faults) true in
    let left = ref (Array.length faults) in
    iter_batches store (fun words mask ->
        if !left > 0 then begin
          Fsim.load_patterns sim words;
          Array.iteri
            (fun i f ->
              if alive.(i) && Int64.logand (Fsim.detect sim f) mask <> 0L then begin
                alive.(i) <- false;
                decr left
              end)
            faults
        end);
    List.filteri (fun i _ -> alive.(i)) items

let carried_detected_c =
  Obs.Counter.make ~help:"faults settled by carried test vectors"
    "redundancy.carried_detected"

let find_untestable ?(limits = Limits.default) ?(prefilter_patterns = 4096) ?tests:store
    ~seed c =
  (match store with
  | Some s when s.inputs <> Circuit.num_inputs c ->
    invalid_arg
      (Printf.sprintf
         "Redundancy: the test store holds %d-input vectors, the circuit has %d inputs"
         s.inputs (Circuit.num_inputs c))
  | _ -> ());
  Obs.Span.with_ "redundancy.classify" (fun () ->
      let faults = Fault.collapsed c in
      let remaining =
        match store with
        | None -> faults
        | Some s ->
          Obs.Span.with_ "redundancy.carried" (fun () ->
              let left = undetected s c ~fault:Fun.id faults in
              Obs.Counter.add carried_detected_c (List.length faults - List.length left);
              left)
      in
      let survivors =
        Campaign.survivors
          {
            Campaign.default with
            faults = Some remaining;
            max_patterns = prefilter_patterns;
            seed;
          }
          c
      in
      (* This call's own vectors, for the SAT-undecided faults below. *)
      let fresh = tests c in
      let record v =
        match store with
        | None -> ()
        | Some s ->
          keep s v;
          keep fresh v
      in
      let podem = Podem.create ~backtrack_limit:limits.Limits.podem_backtracks c in
      let untestable = ref [] in
      let aborted = ref [] in
      List.iter
        (fun f ->
          match Podem.run podem f with
          | Podem.Test v -> record v
          | Podem.Untestable -> untestable := f :: !untestable
          | Podem.Aborted -> aborted := f :: !aborted)
        survivors;
      let esc = Sat_atpg.escalate ~limits c (List.rev !aborted) in
      List.iter (fun (_, v) -> record v) esc.Sat_atpg.tests;
      (* The older vectors missed every fault that reached SAT, so after
         this no stored vector detects an unresolved fault ([fresh] stays
         empty without a store). *)
      let unresolved = undetected fresh c ~fault:fst esc.Sat_atpg.unknown in
      {
        untestable = List.rev !untestable;
        sat_redundant = esc.Sat_atpg.redundant;
        unresolved;
      })

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

let remove ?(limits = Limits.default) ?prefilter_patterns ?tests:store ~seed c =
  let store = match store with Some s -> s | None -> tests c in
  let removed = ref 0 in
  let removed_sat = ref 0 in
  let aborted = ref 0 in
  let passes = ref 0 in
  let continue = ref true in
  while !continue do
    incr passes;
    let found = find_untestable ~limits ?prefilter_patterns ~tests:store ~seed c in
    aborted := List.length found.unresolved;
    let removed_before = !removed in
    (match found.untestable @ found.sat_redundant with
    | [] -> ()
    | candidates ->
      (* Removing one redundancy can make another candidate testable, so
         each is re-proved against the current circuit right before its
         tie-off. An untestability proof on the current circuit justifies the
         tie-off even if earlier removals rewired the site. PODEM aborts on
         the re-proof escalate to SAT, whose exact verdict either justifies
         the tie-off or returns the fault to the undecided pool. The first
         candidate meets the circuit [find_untestable] classified it on, and
         both proofs decide the same formula, so it is always removed. *)
      Obs.Span.with_ "redundancy.reprove" (fun () ->
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
                | Podem.Aborted -> (
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
                  | Sat_atpg.Unknown _ -> incr aborted))
            candidates));
    (* Only a pass without candidates removes nothing; the next pass would
       find none either. *)
    if !removed = removed_before then continue := false
  done;
  {
    removed = !removed;
    proved_redundant_sat = !removed_sat;
    aborted = !aborted;
    passes = !passes;
  }

let make_irredundant ?limits ?prefilter_patterns ~seed c =
  let work = Circuit.copy c in
  let report = remove ?limits ?prefilter_patterns ~seed work in
  let fresh, _ = Circuit.compact work in
  (fresh, report)

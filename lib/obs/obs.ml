(* Process-wide probe registry behind a single on/off word.

   Counters and histograms are plain records of [Atomic.t] cells, so pool
   workers update them without locks. Spans and journal events are the
   main domain's alone: pool workers run leaf work (DESIGN.md §8), so the
   span tree, its open-span stack and the one journal buffer are plain
   mutable data. A span on another domain runs untimed and a journal emit
   there is counted as dropped. The registry mutex guards probe
   registration, which any domain may do.

   The on/off switch is one atomic int with two independent bits —
   metrics (counters, histograms, span tree) and the decision journal
   (event buffer, JSONL file) — so the fully-disabled fast path in every
   probe is still a single atomic load and one predictable branch. *)

let state = Atomic.make 0
let metrics_bit = 1
let journal_bit = 2

let rec set_bit b =
  let s = Atomic.get state in
  if not (Atomic.compare_and_set state s (s lor b)) then set_bit b

let rec clear_bit b =
  let s = Atomic.get state in
  if not (Atomic.compare_and_set state s (s land lnot b)) then clear_bit b

let enabled () = Atomic.get state land metrics_bit <> 0
let enable () = set_bit metrics_bit
let disable () = clear_bit metrics_bit

(* The one clock of the subsystem (see the .mli caveat: this is wall time,
   not a monotonic clock, so consumers clamp durations to [>= 0]). *)
let now () = Unix.gettimeofday ()

let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- counters ------------------------------------------------------------ *)

type counter = { c_name : string; c_help : string; c_v : int Atomic.t }

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let counters_order : counter list ref = ref [] (* reversed *)

module Counter = struct
  type t = counter

  let make ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt counters_tbl name with
        | Some c -> c
        | None ->
          let c = { c_name = name; c_help = help; c_v = Atomic.make 0 } in
          Hashtbl.add counters_tbl name c;
          counters_order := c :: !counters_order;
          c)

  let incr c = if Atomic.get state land metrics_bit <> 0 then Atomic.incr c.c_v

  let add c n =
    if Atomic.get state land metrics_bit <> 0 then
      ignore (Atomic.fetch_and_add c.c_v n)

  let value c = Atomic.get c.c_v
  let name c = c.c_name
end

(* --- histograms ---------------------------------------------------------- *)

type histogram = {
  h_name : string;
  h_help : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_min : int Atomic.t;
  h_max : int Atomic.t;
  h_buckets : int Atomic.t array; (* 64 power-of-two buckets *)
}

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16
let histograms_order : histogram list ref = ref []

(* bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 in
    let v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    !i
  end

let rec atomic_min cell x =
  let cur = Atomic.get cell in
  if x < cur && not (Atomic.compare_and_set cell cur x) then atomic_min cell x

let rec atomic_max cell x =
  let cur = Atomic.get cell in
  if x > cur && not (Atomic.compare_and_set cell cur x) then atomic_max cell x

module Histogram = struct
  type t = histogram

  let make ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt histograms_tbl name with
        | Some h -> h
        | None ->
          let h =
            {
              h_name = name;
              h_help = help;
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0;
              h_min = Atomic.make max_int;
              h_max = Atomic.make min_int;
              h_buckets = Array.init 64 (fun _ -> Atomic.make 0);
            }
          in
          Hashtbl.add histograms_tbl name h;
          histograms_order := h :: !histograms_order;
          h)

  let observe h v =
    if Atomic.get state land metrics_bit <> 0 then begin
      Atomic.incr h.h_count;
      ignore (Atomic.fetch_and_add h.h_sum v);
      atomic_min h.h_min v;
      atomic_max h.h_max v;
      Atomic.incr h.h_buckets.(bucket_of v)
    end

  let count h = Atomic.get h.h_count
  let sum h = Atomic.get h.h_sum
end

(* --- decision journal ----------------------------------------------------- *)

(* Append-only structured run record (DESIGN.md §16), the one event stream:
   the main domain appends events to one bounded buffer, allocated by
   [start] and released by [finish], and [finish] streams the run out as
   JSONL. Pool workers run leaf work only (DESIGN.md §8): an emit from any
   other domain is counted as a drop, as is an emit into a full buffer.
   Journaling never blocks and never perturbs the computation it records. *)

module Journal = struct
  type event = {
    je_ts : float; (* raw [now ()] at emission *)
    je_kind : string;
    je_fields : (string * Obs_json.t) list;
  }

  let dummy_event = { je_ts = 0.; je_kind = ""; je_fields = [] }

  (* 2^17 events (1 MB of slots): five times a whole RAR run on irs1423,
     about 24,000 events. *)
  let capacity = 131_072

  (* The open journal. Only the main domain writes it. *)
  type opened = {
    path : string;
    cmd : string;
    t0 : float; (* [now ()] at [start] *)
    events : event array;
    mutable len : int;
  }

  let current : opened option ref = ref None

  (* Emits that found no room or came from another domain; atomic because
     pool workers bump it. *)
  let dropped = Atomic.make 0

  (* Every counter's value when the journal opened; the footer reports
     each counter's change since then. [Obs.reset] zeroes the counters and
     empties this with them. *)
  let base : (counter * int) list ref = ref []

  let enabled () = Atomic.get state land journal_bit <> 0

  (* [emit_at ts] stamps the event with a [now ()] reading the caller
     already took; [emit] reads the clock only when the journal is on. *)
  let emit_at ts kind fields =
    if Atomic.get state land journal_bit <> 0 then
      match !current with
      | Some j when Domain.is_main_domain () && j.len < capacity ->
        j.events.(j.len) <- { je_ts = ts; je_kind = kind; je_fields = fields };
        j.len <- j.len + 1
      | _ -> Atomic.incr dropped

  let emit kind fields =
    if Atomic.get state land journal_bit <> 0 then emit_at (now ()) kind fields

  type summary = { recorded : int; dropped : int }

  let stats () =
    {
      recorded = (match !current with Some j -> j.len | None -> 0);
      dropped = Atomic.get dropped;
    }

  let reset () =
    Option.iter (fun j -> j.len <- 0) !current;
    Atomic.set dropped 0

  let start ~cmd path =
    current :=
      Some { path; cmd; t0 = now (); events = Array.make capacity dummy_event; len = 0 };
    Atomic.set dropped 0;
    base := locked (fun () -> List.map (fun c -> (c, Atomic.get c.c_v)) !counters_order);
    set_bit journal_bit

  let version = 1

  (* Every event is the main domain's, whose id is 0, and its place in the
     buffer is its emission order. *)
  let event_json ~t0 seq e =
    Obs_json.Obj
      (("ev", Obs_json.String e.je_kind)
      :: ("seq", Obs_json.Int seq)
      :: ("ts", Obs_json.Float (max 0. (e.je_ts -. t0)))
      :: ("dom", Obs_json.Int 0)
      :: e.je_fields)

  let finish () =
    clear_bit journal_bit;
    match !current with
    | None -> { recorded = 0; dropped = 0 }
    | Some j ->
      current := None;
      let base0 = !base in
      base := [];
      let summary = { recorded = j.len; dropped = Atomic.get dropped } in
      let oc = open_out j.path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let line v =
            output_string oc (Obs_json.to_string v);
            output_char oc '\n'
          in
          line
            (Obs_json.Obj
               [
                 ("ev", Obs_json.String "journal_begin");
                 ("journal_version", Obs_json.Int version);
                 ("tool", Obs_json.String "sft");
                 ("cmd", Obs_json.String j.cmd);
                 ("ts", Obs_json.Float j.t0);
               ]);
          for i = 0 to j.len - 1 do
            line (event_json ~t0:j.t0 i j.events.(i))
          done;
          line
            (Obs_json.Obj
               [
                 ("ev", Obs_json.String "journal_end");
                 ("events", Obs_json.Int summary.recorded);
                 ("dropped", Obs_json.Int summary.dropped);
                 ("wall_s", Obs_json.Float (max 0. (now () -. j.t0)));
                 ( "counters",
                   Obs_json.Obj
                     (List.rev_map
                        (fun c ->
                          let v0 = Option.value ~default:0 (List.assq_opt c base0) in
                          (c.c_name, Obs_json.Int (Atomic.get c.c_v - v0)))
                        !counters_order) );
               ]));
      summary
end

(* --- spans --------------------------------------------------------------- *)

type node = {
  s_name : string;
  mutable s_calls : int;
  mutable s_wall : float;
  s_kids : (string, node) Hashtbl.t;
  mutable s_kid_order : string list; (* reversed *)
}

let fresh_node name =
  { s_name = name; s_calls = 0; s_wall = 0.; s_kids = Hashtbl.create 4; s_kid_order = [] }

let root = fresh_node ""

(* The main domain's open spans, innermost first. Only the main domain
   records spans, so the tree and this stack need no lock. *)
let stack : node list ref = ref []

(* --- runtime sampler ------------------------------------------------------ *)

(* Low-rate process-health sampler on the main domain ([Gc.quick_stat] is
   domain-local in OCaml 5): GC deltas and peak RSS from /proc. Each
   sample moves the [runtime.*] counters and, when a journal is open,
   appends a [runtime_sample] event; [maybe_sample] rate-limits so it can
   sit on span exits without measurable cost. *)

module Runtime = struct
  let samples_c = Counter.make "runtime.samples"
  let minor_c = Counter.make "runtime.minor_words"
  let major_c = Counter.make "runtime.major_words"
  let compactions_c = Counter.make "runtime.compactions"
  let maxrss_c = Counter.make "runtime.maxrss_kb"

  type sampler = {
    mutable s_init : bool;
    mutable s_last : float; (* [now ()] of the previous sample *)
    mutable s_minor : float; (* cumulative Gc words at the previous sample *)
    mutable s_major : float;
    mutable s_compactions : int;
    mutable s_count : int;
  }

  let sampler =
    { s_init = false; s_last = 0.; s_minor = 0.; s_major = 0.; s_compactions = 0; s_count = 0 }

  (* Minimum seconds between [maybe_sample] samples. *)
  let interval = 0.25

  (* Peak resident set (kB) from /proc/self/status VmHWM; 0 where absent. *)
  let maxrss_kb () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> 0
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            let rest = String.sub line 6 (String.length line - 6) in
            int_of_float
              (try Scanf.sscanf rest " %d" (fun n -> float_of_int n) with _ -> 0.)
          else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

  let sample () =
    if Atomic.get state land (metrics_bit lor journal_bit) <> 0
       && Domain.is_main_domain ()
    then begin
      let span = match !stack with n :: _ -> n.s_name | [] -> "" in
      let q = Gc.quick_stat () in
      if not sampler.s_init then begin
        sampler.s_init <- true;
        sampler.s_minor <- q.Gc.minor_words;
        sampler.s_major <- q.Gc.major_words;
        sampler.s_compactions <- q.Gc.compactions
      end;
      let dminor = max 0. (q.Gc.minor_words -. sampler.s_minor) in
      let dmajor = max 0. (q.Gc.major_words -. sampler.s_major) in
      let dcompact = max 0 (q.Gc.compactions - sampler.s_compactions) in
      sampler.s_minor <- q.Gc.minor_words;
      sampler.s_major <- q.Gc.major_words;
      sampler.s_compactions <- q.Gc.compactions;
      sampler.s_last <- now ();
      sampler.s_count <- sampler.s_count + 1;
      let rss = maxrss_kb () in
      Counter.incr samples_c;
      Counter.add minor_c (int_of_float dminor);
      Counter.add major_c (int_of_float dmajor);
      Counter.add compactions_c dcompact;
      (* Counters are monotonic: keep maxrss at its peak by adding the
         difference rather than overwriting. *)
      Counter.add maxrss_c (max 0 (rss - Counter.value maxrss_c));
      if Atomic.get state land journal_bit <> 0 then
        Journal.emit "runtime_sample"
          [
            ("span", Obs_json.String span);
            ("minor_words_d", Obs_json.Float dminor);
            ("major_words_d", Obs_json.Float dmajor);
            ("compactions_d", Obs_json.Int dcompact);
            ("heap_words", Obs_json.Int q.Gc.heap_words);
            ("maxrss_kb", Obs_json.Int rss);
          ]
    end

  let maybe_sample () =
    if Atomic.get state land (metrics_bit lor journal_bit) <> 0
       && Domain.is_main_domain ()
       && ((not sampler.s_init) || now () -. sampler.s_last >= interval)
    then sample ()

  let samples () = sampler.s_count

  let reset () =
    sampler.s_init <- false;
    sampler.s_last <- 0.;
    sampler.s_minor <- 0.;
    sampler.s_major <- 0.;
    sampler.s_compactions <- 0;
    sampler.s_count <- 0
end

module Span = struct
  let with_ name f =
    let s = Atomic.get state in
    if s = 0 || not (Domain.is_main_domain ()) then f ()
    else begin
      let node =
        if s land metrics_bit = 0 then None
        else begin
          let parent = match !stack with n :: _ -> n | [] -> root in
          let node =
            match Hashtbl.find_opt parent.s_kids name with
            | Some n -> n
            | None ->
              let n = fresh_node name in
              Hashtbl.add parent.s_kids name n;
              parent.s_kid_order <- name :: parent.s_kid_order;
              n
          in
          stack := node :: !stack;
          Some node
        end
      in
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          (* Wall time can step backwards: never account a negative span.
             The span event carries the reading that ends [dt], so a
             reader recovers the start as [ts - dur_s]. *)
          let t1 = now () in
          let dt = max 0. (t1 -. t0) in
          if s land journal_bit <> 0 then begin
            Journal.emit_at t1 "span"
              [ ("name", Obs_json.String name); ("dur_s", Obs_json.Float dt) ];
            Runtime.maybe_sample ()
          end;
          match node with
          | None -> ()
          | Some node ->
            (match !stack with _ :: tl -> stack := tl | [] -> ());
            node.s_calls <- node.s_calls + 1;
            node.s_wall <- node.s_wall +. dt)
        f
    end

  type info = { name : string; calls : int; wall : float; children : info list }

  let rec info_of n =
    {
      name = n.s_name;
      calls = n.s_calls;
      wall = n.s_wall;
      children =
        List.rev_map (fun k -> info_of (Hashtbl.find n.s_kids k)) n.s_kid_order;
    }

  let snapshot () = (info_of root).children
end

(* --- reset --------------------------------------------------------------- *)

let reset () =
  locked (fun () ->
      List.iter (fun c -> Atomic.set c.c_v 0) !counters_order;
      List.iter
        (fun h ->
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_min max_int;
          Atomic.set h.h_max min_int;
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
        !histograms_order);
  Hashtbl.reset root.s_kids;
  root.s_kid_order <- [];
  Journal.base := [];
  Journal.reset ();
  Runtime.reset ()

(* --- exporters ----------------------------------------------------------- *)

module Export = struct
  let counters () =
    List.rev_map (fun c -> (c.c_name, Atomic.get c.c_v)) !counters_order

  let histogram_json h =
    let buckets = ref [] in
    for i = 63 downto 0 do
      let n = Atomic.get h.h_buckets.(i) in
      if n > 0 then
        buckets := Obs_json.Obj [ ("pow2", Obs_json.Int i); ("count", Obs_json.Int n) ] :: !buckets
    done;
    let count = Atomic.get h.h_count in
    Obs_json.Obj
      [
        ("count", Obs_json.Int count);
        ("sum", Obs_json.Int (Atomic.get h.h_sum));
        ("min", if count = 0 then Obs_json.Null else Obs_json.Int (Atomic.get h.h_min));
        ("max", if count = 0 then Obs_json.Null else Obs_json.Int (Atomic.get h.h_max));
        ("buckets", Obs_json.List !buckets);
      ]

  let rec span_json (s : Span.info) =
    Obs_json.Obj
      [
        ("name", Obs_json.String s.Span.name);
        ("calls", Obs_json.Int s.Span.calls);
        ("wall_seconds", Obs_json.Float s.Span.wall);
        ("children", Obs_json.List (List.map span_json s.Span.children));
      ]

  let to_json_value () =
    Obs_json.Obj
      [
        ("schema_version", Obs_json.Int 1);
        ("enabled", Obs_json.Bool (enabled ()));
        ("counters", Obs_json.Obj (List.map (fun (n, v) -> (n, Obs_json.Int v)) (counters ())));
        ( "histograms",
          Obs_json.Obj
            (List.rev_map (fun h -> (h.h_name, histogram_json h)) !histograms_order) );
        ("trace", Obs_json.List (List.map span_json (Span.snapshot ())));
      ]

  let to_json () = Obs_json.to_string (to_json_value ())

  let trace_text () =
    let b = Buffer.create 256 in
    let rec walk depth (s : Span.info) =
      Buffer.add_string b
        (Printf.sprintf "%*s%-*s calls %8d  wall %10.6fs\n" (2 * depth) ""
           (max 1 (32 - (2 * depth)))
           s.Span.name s.Span.calls s.Span.wall);
      List.iter (walk (depth + 1)) s.Span.children
    in
    let spans = Span.snapshot () in
    if spans = [] then Buffer.add_string b "  (no spans recorded)\n"
    else List.iter (walk 1) spans;
    Buffer.contents b

  let to_text () =
    let b = Buffer.create 1024 in
    Buffer.add_string b "== metrics ==\ncounters:\n";
    List.iter
      (fun (n, v) -> Buffer.add_string b (Printf.sprintf "  %-32s %12d\n" n v))
      (counters ());
    Buffer.add_string b "histograms:\n";
    List.iter
      (fun h ->
        let count = Atomic.get h.h_count in
        Buffer.add_string b
          (Printf.sprintf "  %-32s count %8d  sum %12d  min %d  max %d\n" h.h_name
             count (Atomic.get h.h_sum)
             (if count = 0 then 0 else Atomic.get h.h_min)
             (if count = 0 then 0 else Atomic.get h.h_max)))
      (List.rev !histograms_order);
    Buffer.add_string b "trace:\n";
    Buffer.add_string b (trace_text ());
    Buffer.contents b

  let write_file file =
    let oc = open_out file in
    output_string oc (to_json ());
    output_char oc '\n';
    close_out oc
end

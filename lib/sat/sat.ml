(* Incremental CDCL SAT solver: two-watched literals, first-UIP learning,
   VSIDS-lite activities on a binary max-heap, phase saving, Luby restarts.
   Solver state survives across [solve] calls: after every call the trail is
   rolled back to decision level 0 and learned clauses are retained, so
   clauses may be added between calls. *)

let conflicts_c = Obs.Counter.make ~help:"SAT conflicts" "sat.conflicts"

let propagations_c =
  Obs.Counter.make ~help:"SAT propagations" "sat.propagations"

let lit v = 2 * v
let neg l = l lxor 1
let var_of l = l lsr 1

module Options = struct
  type t = {
    budget : int option;
    restart_base : int;
    seed : int64;
  }

  let default = { budget = None; restart_base = 100; seed = 0L }
end

type t = {
  (* per-variable state, indexed by var *)
  mutable assign : int array;  (* -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* clause index, -1 for decisions/none *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable heap_pos : int array;  (* var -> heap index, -1 if absent *)
  mutable nvars : int;
  (* clause database: the literals of clause [ci] are
     [arena.(start.(ci))] to [arena.(start.(ci) + len.(ci) - 1)], the
     first two watched; problem and learned clauses interleave *)
  mutable arena : int array;
  mutable arena_size : int;
  mutable start : int array;
  mutable len : int array;
  mutable nclauses : int;
  mutable nproblem : int;
  (* watch lists, indexed by literal *)
  mutable watches : int array array;
  mutable watch_len : int array;
  (* binary max-heap of variables ordered by activity *)
  mutable heap : int array;
  mutable heap_size : int;
  (* assignment trail *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;  (* trail size at each decision level *)
  mutable levels : int;  (* current decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;  (* false once a top-level contradiction is known *)
  mutable model : int array;  (* assignment saved by the last Sat outcome *)
  mutable seeded_upto : int;  (* vars whose initial phase was randomised *)
  mutable scratch : int array;  (* [add_clause]'s normalisation buffer *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
}

let create () =
  {
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    nvars = 0;
    arena = Array.make 256 0;
    arena_size = 0;
    start = Array.make 64 0;
    len = Array.make 64 0;
    nclauses = 0;
    nproblem = 0;
    watches = Array.make 32 [||];
    watch_len = Array.make 32 0;
    heap = Array.make 16 0;
    heap_size = 0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    levels = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    model = [||];
    seeded_upto = 0;
    scratch = Array.make 16 0;
    n_decisions = 0;
    n_conflicts = 0;
    n_propagations = 0;
  }

(* Every other field is rewritten before it is read — a variable's state
   and watch lengths by [new_var], its level by [enqueue], the model by a
   [Sat] outcome — or read only below a size reset here (clause arena,
   heap, trail, level limits), so the arrays can stay. *)
let clear t =
  t.nvars <- 0;
  t.arena_size <- 0;
  t.nclauses <- 0;
  t.nproblem <- 0;
  t.heap_size <- 0;
  t.trail_size <- 0;
  t.levels <- 0;
  t.qhead <- 0;
  t.var_inc <- 1.0;
  t.ok <- true;
  t.seeded_upto <- 0;
  t.n_decisions <- 0;
  t.n_conflicts <- 0;
  t.n_propagations <- 0

let num_vars t = t.nvars
let num_clauses t = t.nproblem
let num_learnt t = t.nclauses - t.nproblem
let decisions t = t.n_decisions
let conflicts t = t.n_conflicts
let propagations t = t.n_propagations

(* --- growable array helpers ---------------------------------------------- *)

let grow_int a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) false in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_arr a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) [||] in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- activity heap -------------------------------------------------------- *)

let heap_swap t i j =
  let vi = t.heap.(i) and vj = t.heap.(j) in
  t.heap.(i) <- vj;
  t.heap.(j) <- vi;
  t.heap_pos.(vi) <- j;
  t.heap_pos.(vj) <- i

let rec percolate_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.activity.(t.heap.(i)) > t.activity.(t.heap.(parent)) then begin
      heap_swap t i parent;
      percolate_up t parent
    end
  end

let rec percolate_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
  then best := l;
  if r < t.heap_size && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    percolate_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    if Array.length t.heap <= t.heap_size then
      t.heap <- grow_int t.heap (t.heap_size + 1) 0;
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    percolate_up t (t.heap_size - 1)
  end

(* Pop the highest-activity variable (present or not: lazily skips nothing —
   every unassigned variable is kept in the heap). *)
let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then begin
    let last = t.heap.(t.heap_size) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    percolate_down t 0
  end;
  v

let rescale_activities t =
  for v = 0 to t.nvars - 1 do
    t.activity.(v) <- t.activity.(v) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then rescale_activities t;
  if t.heap_pos.(v) >= 0 then percolate_up t t.heap_pos.(v)

let decay t = t.var_inc <- t.var_inc /. 0.95

(* --- variables and clauses ------------------------------------------------ *)

let new_var t =
  let v = t.nvars in
  let n = v + 1 in
  (* The per-variable arrays always share one length, and the per-literal
     ones twice that; growth is checked before assigning because storing
     into a field of a long-lived record costs a write barrier. *)
  if Array.length t.assign < n then begin
    t.assign <- grow_int t.assign n (-1);
    t.level <- grow_int t.level n 0;
    t.reason <- grow_int t.reason n (-1);
    t.activity <- grow_float t.activity n;
    t.polarity <- grow_bool t.polarity n;
    t.seen <- grow_bool t.seen n;
    t.heap_pos <- grow_int t.heap_pos n (-1);
    t.watches <- grow_arr t.watches (2 * n);
    t.watch_len <- grow_int t.watch_len (2 * n) 0
  end;
  t.assign.(v) <- -1;
  t.reason.(v) <- -1;
  t.heap_pos.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.polarity.(v) <- false;
  t.seen.(v) <- false;
  (* A cleared solver keeps the literals' watch arrays; only the lengths
     say what they hold. *)
  t.watch_len.(2 * v) <- 0;
  t.watch_len.((2 * v) + 1) <- 0;
  t.nvars <- n;
  heap_insert t v;
  v

(* Value of a literal: -1 unassigned, 0 false, 1 true. *)
let lit_value t l =
  let a = t.assign.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let watch t l ci =
  let len = t.watch_len.(l) in
  if Array.length t.watches.(l) <= len then
    t.watches.(l) <- grow_int t.watches.(l) (max 4 (len + 1)) 0;
  t.watches.(l).(len) <- ci;
  t.watch_len.(l) <- len + 1

(* Copy the first [k] literals of [c] (k >= 2) into the arena as a new
   clause and watch its first two. The arrays grow only past their largest
   size so far, which a cleared solver keeps. *)
let store_clause t c k =
  let ci = t.nclauses in
  let s = t.arena_size in
  if Array.length t.start <= ci then begin
    t.start <- grow_int t.start (ci + 1) 0;
    t.len <- grow_int t.len (ci + 1) 0
  end;
  if Array.length t.arena < s + k then t.arena <- grow_int t.arena (s + k) 0;
  Array.blit c 0 t.arena s k;
  t.start.(ci) <- s;
  t.len.(ci) <- k;
  t.arena_size <- s + k;
  t.nclauses <- ci + 1;
  watch t c.(0) ci;
  watch t c.(1) ci;
  ci

let enqueue t l reason =
  let v = var_of l in
  t.assign.(v) <- 1 lxor (l land 1);
  t.level.(v) <- t.levels;
  t.reason.(v) <- reason;
  if Array.length t.trail <= t.trail_size then
    t.trail <- grow_int t.trail (t.trail_size + 1) 0;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

(* Clauses may be added at any point between solves: every solve leaves the
   trail at decision level 0, so simplification below always runs under the
   top-level assignment only. The literals are sorted by insertion in
   [scratch] (clauses are short); a literal and its negation differ only in
   bit 0, so after sorting a complementary pair is an adjacent one. *)
let add_clause t lits =
  if t.levels <> 0 then invalid_arg "Sat.add_clause: mid-solve";
  if t.ok then begin
    let n = Array.length lits in
    if Array.length t.scratch < n then t.scratch <- grow_int t.scratch n 0;
    let b = t.scratch in
    for i = 0 to n - 1 do
      let l = lits.(i) in
      let j = ref i in
      while !j > 0 && b.(!j - 1) > l do
        b.(!j) <- b.(!j - 1);
        decr j
      done;
      b.(!j) <- l
    done;
    (* Keep the distinct literals not false at the top level, compacted in
       place; stop at a tautology or a literal already true. *)
    let kept = ref 0 and prev = ref (-1) and taut = ref false and i = ref 0 in
    while (not !taut) && !i < n do
      let l = b.(!i) in
      incr i;
      if l <> !prev then begin
        if l = neg !prev || lit_value t l = 1 then taut := true
        else if lit_value t l <> 0 then begin
          b.(!kept) <- l;
          incr kept
        end;
        prev := l
      end
    done;
    if not !taut then
      match !kept with
      | 0 -> t.ok <- false
      | 1 -> enqueue t b.(0) (-1) (* top-level unit *)
      | k ->
        ignore (store_clause t b k);
        (* Problem clauses are interleaved with learned ones in incremental
           use; [nproblem] counts them rather than delimiting a prefix. *)
        t.nproblem <- t.nproblem + 1
  end

(* --- propagation ---------------------------------------------------------- *)

(* Propagate everything on the trail; returns the index of a conflicting
   clause, or -1. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = neg p in
    let ws = t.watches.(false_lit) in
    let len = t.watch_len.(false_lit) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < len do
      let ci = ws.(!i) in
      incr i;
      let c = t.arena and s = t.start.(ci) in
      (* Make sure the false literal sits in slot 1. *)
      if c.(s) = false_lit then begin
        c.(s) <- c.(s + 1);
        c.(s + 1) <- false_lit
      end;
      if lit_value t c.(s) = 1 then begin
        (* Clause already satisfied: keep the watch. *)
        ws.(!j) <- ci;
        incr j
      end
      else begin
        (* Look for a non-false replacement watch. *)
        let n = s + t.len.(ci) in
        let k = ref (s + 2) in
        while !k < n && lit_value t c.(!k) = 0 do incr k done;
        if !k < n then begin
          c.(s + 1) <- c.(!k);
          c.(!k) <- false_lit;
          watch t c.(s + 1) ci (* watch moved: drop from this list *)
        end
        else begin
          (* Unit or conflicting. *)
          ws.(!j) <- ci;
          incr j;
          if lit_value t c.(s) = 0 then begin
            (* Conflict: keep the remaining watches and stop. *)
            while !i < len do
              ws.(!j) <- ws.(!i);
              incr j;
              incr i
            done;
            t.qhead <- t.trail_size;
            confl := ci
          end
          else enqueue t c.(s) ci
        end
      end
    done;
    t.watch_len.(false_lit) <- !j
  done;
  !confl

(* --- conflict analysis ---------------------------------------------------- *)

let backjump t lvl =
  if t.levels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of t.trail.(i) in
      t.polarity.(v) <- t.assign.(v) = 1;
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.levels <- lvl
  end

(* First-UIP learning: returns the learned clause (asserting literal first)
   and the backjump level. *)
let analyze t confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let s = t.start.(!confl) in
    for i = s to s + t.len.(!confl) - 1 do
      let q = t.arena.(i) in
      if q <> !p then begin
        let v = var_of q in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          t.seen.(v) <- true;
          bump t v;
          if t.level.(v) >= t.levels then incr path
          else learnt := q :: !learnt
        end
      end
    done;
    (* Next trail literal that contributed to the conflict. *)
    while not t.seen.(var_of t.trail.(!index)) do decr index done;
    let q = t.trail.(!index) in
    decr index;
    let v = var_of q in
    t.seen.(v) <- false;
    decr path;
    if !path = 0 then begin
      p := neg q;
      continue := false
    end
    else begin
      p := q;
      confl := t.reason.(v)
    end
  done;
  let rest = Array.of_list !learnt in
  Array.iter (fun q -> t.seen.(var_of q) <- false) rest;
  (* Backjump to the second-highest level in the clause; place a literal of
     that level in slot 1 so the watches are correct after backjumping. *)
  let blevel = ref 0 in
  let pos = ref (-1) in
  Array.iteri
    (fun i q ->
      let l = t.level.(var_of q) in
      if l > !blevel then begin
        blevel := l;
        pos := i
      end)
    rest;
  if !pos > 0 then begin
    let tmp = rest.(0) in
    rest.(0) <- rest.(!pos);
    rest.(!pos) <- tmp
  end;
  (Array.append [| !p |] rest, !blevel)

(* --- search --------------------------------------------------------------- *)

type outcome =
  | Sat
  | Unsat
  | Unknown

(* [luby i] is the i-th element (0-based) of the Luby restart sequence
   1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's iterative formulation). *)
let luby i =
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let decide t =
  let v = ref (-1) in
  while !v < 0 && t.heap_size > 0 do
    let cand = heap_pop t in
    if t.assign.(cand) < 0 then v := cand
  done;
  if !v < 0 then false
  else begin
    t.n_decisions <- t.n_decisions + 1;
    if Array.length t.trail_lim <= t.levels then
      t.trail_lim <- grow_int t.trail_lim (t.levels + 1) 0;
    t.trail_lim.(t.levels) <- t.trail_size;
    t.levels <- t.levels + 1;
    let l = if t.polarity.(!v) then lit !v else neg (lit !v) in
    enqueue t l (-1);
    true
  end

let seed_phases t seed =
  if t.seeded_upto < t.nvars then begin
    for v = t.seeded_upto to t.nvars - 1 do
      (* splitmix64-style hash of (seed, v): deterministic per variable. *)
      let z =
        Int64.add seed (Int64.mul (Int64.of_int (v + 1)) 0x9E3779B97F4A7C15L)
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      let z = Int64.logxor z (Int64.shift_right_logical z 31) in
      t.polarity.(v) <- Int64.logand z 1L = 1L
    done;
    t.seeded_upto <- t.nvars
  end

let save_model t =
  if Array.length t.model < t.nvars then t.model <- Array.make t.nvars 0;
  Array.blit t.assign 0 t.model 0 t.nvars

let solve ?(options = Options.default) t =
  if t.levels <> 0 then invalid_arg "Sat.solve: mid-solve";
  if not t.ok then Unsat
  else begin
    let limit =
      match options.Options.budget with None -> max_int | Some b -> b
    in
    if options.Options.seed <> 0L then seed_phases t options.Options.seed;
    let start_conflicts = t.n_conflicts in
    let start_propagations = t.n_propagations in
    let result = ref None in
    let restart_no = ref 0 in
    let restart_left = ref (options.Options.restart_base * luby 0) in
    while !result = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.n_conflicts <- t.n_conflicts + 1;
        decr restart_left;
        if t.levels = 0 then begin
          t.ok <- false;
          result := Some Unsat
        end
        else if t.n_conflicts - start_conflicts >= limit then
          result := Some Unknown
        else begin
          let learnt, blevel = analyze t confl in
          backjump t blevel;
          (if Array.length learnt = 1 then enqueue t learnt.(0) (-1)
           else begin
             let ci = store_clause t learnt (Array.length learnt) in
             enqueue t learnt.(0) ci
           end);
          decay t
        end
      end
      else if !restart_left <= 0 then begin
        incr restart_no;
        restart_left := options.Options.restart_base * luby !restart_no;
        backjump t 0
      end
      else if not (decide t) then begin
        save_model t;
        result := Some Sat
      end
    done;
    (* Roll back to level 0, keeping learned clauses: the solver is ready
       for more clauses or another query. *)
    backjump t 0;
    Obs.Counter.add conflicts_c (t.n_conflicts - start_conflicts);
    Obs.Counter.add propagations_c (t.n_propagations - start_propagations);
    match !result with Some r -> r | None -> assert false
  end

let value t v = t.model.(v) = 1

(* Domain pool with chunked work stealing from a shared atomic counter.

   One job is in flight at a time (submissions come from a single
   orchestrating domain). Workers park on a condition variable between
   jobs; a job is published by bumping [generation] under the pool mutex,
   which also gives the happens-before edge that publishes the caller's
   writes (input arrays, closures) to the workers. Completion is detected
   by an atomic count of unfinished chunks; the final decrement signals
   the job's own condition variable, which publishes the workers' writes
   (result slots) back to the caller. *)

type job = {
  body : int -> int -> int -> unit; (* slot lo hi *)
  n : int;
  chunk : int;
  nchunks : int;
  next : int Atomic.t;
  pending : int Atomic.t; (* chunks not yet completed *)
  mutable error : (exn * Printexc.raw_backtrace) option;
  jm : Mutex.t;
  jdone : Condition.t;
}

type t = {
  n_domains : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_ready : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stopped : bool;
  busy : Obs.Counter.t array; (* per-slot busy time, pool.domain<slot>.busy_us *)
}

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* The runtime's [Max_domains] on 64-bit hosts (caml/domain.h): past it
   [Domain.spawn] fails with [Failure "failed to allocate domain"]. *)
let max_domains = 128

let domains_of_flag n = if n <= 0 then default_domains () else n

(* Per-domain busy-time counters are keyed by slot, not by pool, so every
   pool of the process aggregates into the same probes (idempotent
   [Obs.Counter.make]). Created lazily: a process that never builds a pool
   registers nothing. The chunk counter is first looked up inside chunk
   bodies, on worker domains, where a shared [Lazy.t] is unsafe (racing
   forces raise [CamlinternalLazy.Undefined]); racing first lookups here
   both call the idempotent, locked [Obs.Counter.make] and agree. *)
let chunks_cell = Atomic.make None

let chunks_counter () =
  match Atomic.get chunks_cell with
  | Some c -> c
  | None ->
    let c = Obs.Counter.make ~help:"pool chunks executed" "pool.chunks" in
    Atomic.set chunks_cell (Some c);
    c

(* Work-size cutoff accounting: submissions kept inline because they were
   smaller than the caller's [serial_below] threshold vs. submissions that
   actually fanned out. *)
let cutoff_counter =
  lazy
    (Obs.Counter.make ~help:"pooled submissions run inline by the work-size cutoff"
       "pool.serial_cutoff")

let fanout_counter =
  lazy
    (Obs.Counter.make ~help:"pooled submissions fanned out across domains"
       "pool.parallel_jobs")

let busy_counters : (int, Obs.Counter.t) Hashtbl.t = Hashtbl.create 8
let busy_mu = Mutex.create ()

let busy_counter slot =
  Mutex.lock busy_mu;
  let c =
    match Hashtbl.find_opt busy_counters slot with
    | Some c -> c
    | None ->
      let c =
        Obs.Counter.make
          ~help:"busy microseconds in this pool slot"
          (Printf.sprintf "pool.domain%d.busy_us" slot)
      in
      Hashtbl.add busy_counters slot c;
      c
  in
  Mutex.unlock busy_mu;
  c

let run_chunks j slot =
  let continue_ = ref true in
  while !continue_ do
    let c = Atomic.fetch_and_add j.next 1 in
    if c >= j.nchunks then continue_ := false
    else begin
      let lo = c * j.chunk in
      let hi = min j.n (lo + j.chunk) in
      (* Once a chunk failed, later chunks are skipped (their results would
         be discarded anyway); the unsynchronised read may miss a fresh
         error and run one extra chunk, which is harmless. *)
      (if j.error = None then
         try j.body slot lo hi
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock j.jm;
           if j.error = None then j.error <- Some (e, bt);
           Mutex.unlock j.jm);
      if Atomic.fetch_and_add j.pending (-1) = 1 then begin
        Mutex.lock j.jm;
        Condition.broadcast j.jdone;
        Mutex.unlock j.jm
      end
    end
  done

let rec worker_loop t slot seen =
  Mutex.lock t.m;
  while (not t.stopped) && t.generation = seen do
    Condition.wait t.work_ready t.m
  done;
  let stop = t.stopped in
  let gen = t.generation in
  let job = t.job in
  Mutex.unlock t.m;
  if not stop then begin
    (* [job] can be [None] if the other participants already drained it and
       the caller moved on; just wait for the next generation. *)
    (match job with Some j -> run_chunks j slot | None -> ());
    worker_loop t slot gen
  end

let create ?domains () =
  let n_domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n_domains > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.create: %d domains is above the runtime's limit of %d"
         n_domains max_domains);
  let t =
    {
      n_domains;
      workers = [||];
      m = Mutex.create ();
      work_ready = Condition.create ();
      job = None;
      generation = 0;
      stopped = false;
      busy = Array.init n_domains busy_counter;
    }
  in
  if n_domains > 1 then
    t.workers <-
      Array.init (n_domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let domains t = t.n_domains

let shutdown t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let for_chunks t ?chunk ?(serial_below = 0) ~n body =
  if n < 0 then invalid_arg "Pool.for_chunks: negative range";
  (* Chunk bodies are timed only when metrics are on; the disabled path
     runs the raw body with no clock reads. The busy-time delta is clamped
     to >= 0: Obs.now is wall time and may step backwards. *)
  let body =
    if not (Obs.enabled ()) then body
    else
      fun ~slot ~lo ~hi ->
        let t0 = Obs.now () in
        Fun.protect
          ~finally:(fun () ->
            let dt = Obs.now () -. t0 in
            Obs.Counter.add t.busy.(slot) (max 0 (int_of_float (dt *. 1e6)));
            Obs.Counter.incr (chunks_counter ()))
          (fun () -> body ~slot ~lo ~hi)
  in
  if n > 0 then
    if t.n_domains <= 1 || n = 1 then body ~slot:0 ~lo:0 ~hi:n
    else if n < serial_below then begin
      (* Too little work to amortise job publication and wake-ups: run it
         inline on the calling domain. Same code path as a 1-domain pool,
         so results are unchanged by construction. *)
      Obs.Counter.incr (Lazy.force cutoff_counter);
      body ~slot:0 ~lo:0 ~hi:n
    end
    else begin
      Obs.Counter.incr (Lazy.force fanout_counter);
      let chunk =
        match chunk with
        | Some c when c > 0 -> c
        | Some _ -> invalid_arg "Pool.for_chunks: chunk must be positive"
        | None -> max 1 ((n + (t.n_domains * 4) - 1) / (t.n_domains * 4))
      in
      let nchunks = (n + chunk - 1) / chunk in
      let j =
        {
          body = (fun slot lo hi -> body ~slot ~lo ~hi);
          n;
          chunk;
          nchunks;
          next = Atomic.make 0;
          pending = Atomic.make nchunks;
          error = None;
          jm = Mutex.create ();
          jdone = Condition.create ();
        }
      in
      Mutex.lock t.m;
      t.job <- Some j;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.m;
      run_chunks j 0;
      Mutex.lock j.jm;
      while Atomic.get j.pending > 0 do
        Condition.wait j.jdone j.jm
      done;
      Mutex.unlock j.jm;
      Mutex.lock t.m;
      t.job <- None;
      Mutex.unlock t.m;
      (* The fan-out has drained and the orchestrating domain is about to
         return to serial work: a natural, low-rate spot to sample process
         health (GC deltas, RSS, per-domain busy time). One atomic load
         when neither metrics nor a journal is active. *)
      Obs.Runtime.maybe_sample ();
      match j.error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

let map_chunks t ?chunk ?serial_below ~state ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    (* Each slot only ever touches its own entry, so no locking. *)
    let states = Array.make t.n_domains None in
    for_chunks t ?chunk ?serial_below ~n (fun ~slot ~lo ~hi ->
        let st =
          match states.(slot) with
          | Some st -> st
          | None ->
            let st = state slot in
            states.(slot) <- Some st;
            st
        in
        for i = lo to hi - 1 do
          out.(i) <- Some (f st i arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map t ?chunk ?serial_below f arr =
  map_chunks t ?chunk ?serial_below ~state:(fun _ -> ()) ~f:(fun () _ x -> f x) arr

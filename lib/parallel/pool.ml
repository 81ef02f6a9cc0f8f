(* Domain pool handing out one array element per task from a shared
   atomic cursor.

   One job is in flight at a time (submissions come from the domain that
   opened the pool). Workers park on a condition variable between jobs; a
   job is published by bumping [generation] under the pool mutex, which
   also gives the happens-before edge that publishes the caller's writes
   (input arrays, closures) to the workers. Completion is detected by an
   atomic count of unfinished elements; the final decrement signals the
   job's own condition variable, which publishes the workers' writes
   (result slots) back to the caller. *)

type job = {
  run : int -> unit; (* computes one element *)
  n : int;
  next : int Atomic.t;
  pending : int Atomic.t; (* elements not yet completed *)
  mutable error : (exn * Printexc.raw_backtrace) option;
  jm : Mutex.t;
  jdone : Condition.t;
}

type t = {
  mutable workers : unit Domain.t list; (* empty: [map] runs inline *)
  m : Mutex.t;
  work_ready : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stopped : bool;
}

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* The runtime's [Max_domains] on 64-bit hosts (caml/domain.h): past it
   [Domain.spawn] fails with [Failure "failed to allocate domain"]. *)
let max_domains = 128

let domains_of_flag n = if n <= 0 then default_domains () else n

let run_elements j =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add j.next 1 in
    if i >= j.n then continue_ := false
    else begin
      (* Once an element failed, later ones are skipped (their results
         would be discarded anyway); the unsynchronised read may miss a
         fresh error and run one extra element, which is harmless. *)
      (if j.error = None then
         try j.run i
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

let rec worker_loop t seen =
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
    (match job with Some j -> run_elements j | None -> ());
    worker_loop t gen
  end

let shutdown t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers

let with_pool ?(domains = default_domains ()) f =
  if domains > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.with_pool: %d domains is above the runtime's limit of %d"
         domains max_domains);
  let t =
    {
      workers = [];
      m = Mutex.create ();
      work_ready = Condition.create ();
      job = None;
      generation = 0;
      stopped = false;
    }
  in
  (* Workers are spawned inside the protected body, so a failed spawn
     still stops and joins the ones already running. *)
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      for _ = 2 to domains do
        t.workers <- Domain.spawn (fun () -> worker_loop t 0) :: t.workers
      done;
      f t)

let map t f arr =
  let n = Array.length arr in
  if n <= 1 || t.workers = [] then Array.map f arr
  else begin
    (* Each element writes only its own slot, so no locking. *)
    let out = Array.make n None in
    let j =
      {
        run = (fun i -> out.(i) <- Some (f arr.(i)));
        n;
        next = Atomic.make 0;
        pending = Atomic.make n;
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
    run_elements j;
    Mutex.lock j.jm;
    while Atomic.get j.pending > 0 do
      Condition.wait j.jdone j.jm
    done;
    Mutex.unlock j.jm;
    Mutex.lock t.m;
    t.job <- None;
    Mutex.unlock t.m;
    (match j.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map Option.get out
  end

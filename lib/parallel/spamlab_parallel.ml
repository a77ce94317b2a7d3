(* Deterministic domain pool on stdlib Domain/Mutex/Condition.

   The contract that makes parallel experiments reproducible: work is
   partitioned by index, every element's computation must depend only on
   its input (tasks derive their randomness from named Rng streams, never
   a shared mutable generator), and results are written into a slot per
   index — so the value of [map_array] is independent of how elements
   land on domains.  Exception propagation is deterministic too: claims
   are handed out in increasing index order, so the lowest raising index
   is always claimed and evaluated, and its exception is the one
   re-raised at the join regardless of scheduling. *)

module Obs = Spamlab_obs.Obs
module Clock = Spamlab_obs.Clock
module Fault = Spamlab_fault

(* Every entry point that accepts a jobs count — [--jobs] in bin/spamlab
   and bench/main, the [SPAMLAB_JOBS] environment variable, and
   [Lab.create ?jobs] — funnels through these two functions so an
   invalid value fails with one message everywhere. *)
let jobs_error got =
  Printf.sprintf "--jobs/SPAMLAB_JOBS must be a positive integer (got %s)" got

let validate_jobs n =
  if n >= 1 then Ok n else Error (jobs_error (string_of_int n))

let parse_jobs s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n -> validate_jobs n
  | None -> Error (jobs_error (if s = "" then "an empty string" else s))

let default_jobs () =
  match Sys.getenv_opt "SPAMLAB_JOBS" with
  | Some v -> (
      match parse_jobs v with
      | Ok n -> n
      | Error msg -> invalid_arg msg)
  | None -> Domain.recommended_domain_count ()

exception Task_failed of { site : string; attempts : int }

let () =
  Printexc.register_printer (function
    | Task_failed { site; attempts } ->
        Some
          (Printf.sprintf
             "Spamlab_parallel.Task_failed(site %s, %d attempts)" site attempts)
    | _ -> None)

let max_attempts = 3

module Pool = struct
  type task = unit -> unit

  let retried = Obs.counter "fault.retried"
  let drained_failures = Obs.counter "pool.drained_failures"

  (* Task-level supervision: evaluate one element, retrying faults
     classified transient up to [max_attempts] total attempts.  The
     backoff is a deterministic [Domain.cpu_relax] spin — no clock, no
     randomness — so supervised maps keep the pool's reproducibility
     contract.  A transient fault that persists through every attempt
     becomes a typed [Task_failed] carrying the site and attempt count,
     which then propagates through the map's usual lowest-index
     exception path; non-transient exceptions propagate unchanged on
     the first attempt. *)
  let eval_element f x =
    let backoff attempt =
      for _ = 1 to 1 lsl min attempt 10 do
        Domain.cpu_relax ()
      done
    in
    let rec attempt n =
      match
        Fault.check "pool.task";
        f x
      with
      | v -> v
      | exception (Fault.Injected { site; _ } as exn)
        when Fault.is_transient exn ->
          if n >= max_attempts then
            raise (Task_failed { site; attempts = n })
          else begin
            Obs.incr retried;
            backoff n;
            attempt (n + 1)
          end
    in
    attempt 1

  type t = {
    jobs : int;
    queue : task Queue.t;
    mutex : Mutex.t;
    has_work : Condition.t;
    mutable closed : bool;
    mutable workers : unit Domain.t array;
  }

  (* True inside a pool worker domain.  A nested [map_array] from within
     a task must not wait on the pool that is running it (the workers it
     would wait for are the ones already busy), so nested use falls back
     to the sequential path — same results, no deadlock. *)
  let in_worker_key = Domain.DLS.new_key (fun () -> false)
  let in_worker () = Domain.DLS.get in_worker_key

  (* Multi-domain runs stop the world at every minor collection, so
     with the default 256k-word minor heap a pool of allocating workers
     spends much of its time in rendezvous — especially when domains
     outnumber cores.  The minor heap size is per-domain and not
     inherited across [Domain.spawn], so every participant (workers
     here, the caller in [create]) enlarges its own, trading a few MB
     per domain for an order of magnitude fewer synchronizations.  GC
     scheduling is invisible to the deterministic map contract, so
     results are unaffected. *)
  let pool_minor_heap_words = 4 * 1024 * 1024

  let enlarge_minor_heap () =
    let g = Gc.get () in
    if g.Gc.minor_heap_size < pool_minor_heap_words then
      Gc.set { g with Gc.minor_heap_size = pool_minor_heap_words }

  let worker t =
    enlarge_minor_heap ();
    Domain.DLS.set in_worker_key true;
    let rec loop () =
      Mutex.lock t.mutex;
      let rec dequeue () =
        if t.closed then None
        else
          match Queue.take_opt t.queue with
          | Some task -> Some task
          | None ->
              Condition.wait t.has_work t.mutex;
              dequeue ()
      in
      let task = dequeue () in
      Mutex.unlock t.mutex;
      match task with
      | None -> ()
      | Some task ->
          (* Tasks are wrapped by [map_array] and never raise; the guard
             keeps a buggy direct submission from killing the worker —
             but resource exhaustion must never be masked, and swallowed
             failures must at least leave a trace. *)
          (try task () with
          | (Out_of_memory | Stack_overflow) as exn -> raise exn
          | _ -> Obs.incr drained_failures);
          loop ()
    in
    loop ()

  let create ~jobs =
    if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
    let t =
      {
        jobs;
        queue = Queue.create ();
        mutex = Mutex.create ();
        has_work = Condition.create ();
        closed = false;
        workers = [||];
      }
    in
    (* jobs - 1 spawned domains: the caller's domain joins every map as
       the jobs-th worker, so jobs = 1 spawns nothing and runs inline. *)
    if jobs > 1 then enlarge_minor_heap ();
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let jobs t = t.jobs

  let shutdown t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]

  (* When observability is on, a submitted task reports how long it sat
     in the queue (pool.queue_wait, measured from submit to the moment a
     worker picks it up) and how long it ran (pool.task).  These spans
     describe scheduling, so unlike the experiment-layer counters they
     are NOT invariant under different [jobs] settings. *)
  let instrument task =
    if not (Obs.enabled ()) then task
    else begin
      let submitted_ns = Clock.now_ns () in
      fun () ->
        Obs.record_span "pool.queue_wait" ~start_ns:submitted_ns
          ~stop_ns:(Clock.now_ns ());
        Obs.span "pool.task" task
    end

  let submit t task =
    let task = instrument task in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: submit after shutdown"
    end;
    Queue.add task t.queue;
    Condition.signal t.has_work;
    Mutex.unlock t.mutex

  let map_array t f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else if t.jobs = 1 || n = 1 || in_worker () then
      Array.map (eval_element f) arr
    else
      Obs.span "pool.map" @@ fun () ->
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure =
        Atomic.make (None : (int * exn * Printexc.raw_backtrace) option)
      in
      let record_failure i exn bt =
        (* Keep the lowest-index failure (see the module comment). *)
        let rec set () =
          let current = Atomic.get failure in
          let keep =
            match current with Some (j, _, _) -> j <= i | None -> false
          in
          if
            (not keep)
            && not (Atomic.compare_and_set failure current (Some (i, exn, bt)))
          then set ()
        in
        set ();
        (* Short-circuit: stop handing out new indices.  Everything
           below the lowest raising index was already claimed (claims
           are monotone), so determinism of the propagated exception is
           unaffected. *)
        if Atomic.get next < n then Atomic.set next n
      in
      let rec drive () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* Per-domain claim count: the metrics dump turns these into a
             pool-utilization distribution. *)
          Obs.tick "pool.item";
          (match eval_element f arr.(i) with
          | v -> results.(i) <- Some v
          | exception exn ->
              record_failure i exn (Printexc.get_raw_backtrace ()));
          drive ()
        end
      in
      let helpers = min (t.jobs - 1) (n - 1) in
      let pending = ref helpers in
      let all_done = Condition.create () in
      for _ = 1 to helpers do
        submit t (fun () ->
            drive ();
            Mutex.lock t.mutex;
            decr pending;
            if !pending = 0 then Condition.broadcast all_done;
            Mutex.unlock t.mutex)
      done;
      drive ();
      Mutex.lock t.mutex;
      while !pending > 0 do
        Condition.wait all_done t.mutex
      done;
      Mutex.unlock t.mutex;
      (match Atomic.get failure with
      | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ());
      Array.map (function Some v -> v | None -> assert false) results

  let map_list t f l = Array.to_list (map_array t f (Array.of_list l))
end

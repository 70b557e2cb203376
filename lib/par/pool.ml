(* A fixed-size domain pool: [lanes - 1] persistent worker domains plus
   the submitting caller, so a pool of [lanes] gives [lanes] lanes of
   parallelism while paying the domain-spawn cost once, not per batch.

   Scheduling inside {!map} is self-balancing: lanes pull the next item
   index off a shared [Atomic] counter, so skewed per-item costs (one
   huge document among many small ones) do not idle the other lanes.

   Observability: each lane records into its own domain's shard of the
   {!Obs.Metrics} registry, so counters and timings need no locking on
   the hot path; once {!map} returns every lane has quiesced and a read
   sums to exactly the sequential totals. *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  lanes : int;
  stray : int Atomic.t;  (* task exceptions that escaped to the worker loop *)
}

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* closed *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    (* Task bodies own their error handling (see [map]), so anything
       arriving here is a stray: count it — silently swallowing hides
       operator-grade failures forever.  Recoverable strays must not
       kill the worker domain; resource-corruption ones
       ([Out_of_memory], [Stack_overflow]) re-raise, ending this worker
       so the failure surfaces at the {!shutdown} join instead of
       looping over a corrupted stack or heap. *)
    (match task () with
    | () -> ()
    | exception e -> (
      Atomic.incr pool.stray;
      match e with
      | Out_of_memory | Stack_overflow -> raise e
      | _ -> ()));
    worker_loop pool
  end

let create lanes =
  let lanes = max 1 lanes in
  let pool =
    { mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [||];
      lanes;
      stray = Atomic.make 0 }
  in
  pool.workers <-
    Array.init (lanes - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  Obs.Metrics.add "par.pool.domains" (lanes - 1);
  pool

let lanes pool = pool.lanes

let submit pool task =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Par.Pool.submit: pool is shut down"
  end;
  Queue.push task pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex

let stray_exn_count pool = Atomic.get pool.stray

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  (* join everything even if a worker died re-raising a non-recoverable
     stray; surface the first such death after the pool is quiesced *)
  let first_death = ref None in
  Array.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> if !first_death = None then first_death := Some e)
    pool.workers;
  pool.workers <- [||];
  (* stray totals are recorded exactly once, at the join *)
  let n = Atomic.exchange pool.stray 0 in
  if n > 0 then Obs.Metrics.add "par.pool.stray_exn" n;
  match !first_death with Some e -> raise e | None -> ()

let map pool f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let active = min pool.lanes n in
    let remaining = Atomic.make active in
    let fin_mutex = Mutex.create () in
    let fin = Condition.create () in
    let lane () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* after a failure, drain the remaining indices without
             touching [f]: the batch is lost anyway *)
          (if Atomic.get failure = None then
             match f items.(i) with
             | v -> results.(i) <- Some v
             | exception e ->
               ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ();
      Mutex.lock fin_mutex;
      if Atomic.fetch_and_add remaining (-1) = 1 then Condition.broadcast fin;
      Mutex.unlock fin_mutex
    in
    for _ = 1 to active - 1 do
      submit pool lane
    done;
    (* the caller is a lane too: it works instead of blocking *)
    lane ();
    Mutex.lock fin_mutex;
    while Atomic.get remaining > 0 do
      Condition.wait fin fin_mutex
    done;
    Mutex.unlock fin_mutex;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

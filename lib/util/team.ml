(* A fixed-size team of worker domains draining a shared task queue.

   This is the engine behind [Beltway_sim.Pool] (embarrassingly
   parallel figure sweeps): a Mutex+Condition queue of thunks,
   [size - 1] spawned domains, and a submitting domain that always
   participates in draining, so a team of [size] keeps exactly [size]
   domains busy.

   Nesting: a domain-local flag marks every team worker (and every
   domain currently helping a [map]), and any nested submission
   downgrades to sequential execution on the caller. The queue has no
   dependency tracking, so this is what keeps nested fan-outs both
   deadlock-free and cheap to reason about. *)

type t = {
  size : int;
  mutable workers : unit Domain.t list; (* spawned lazily on first parallel run *)
  mutable started : bool;
  mutable stop : bool;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
}

let in_worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_flag

(* OCaml 5 performs poorly beyond ~a hundred domains; far above any
   sensible core count, so clamp quietly. *)
let max_size = 64

let create ~size =
  {
    size = max 1 (min size max_size);
    workers = [];
    started = false;
    stop = false;
    queue = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
  }

let size t = t.size

let worker_loop t () =
  Domain.DLS.set in_worker_flag true;
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.m (* stopping *)
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.m;
      task ();
      loop ()
    end
  in
  loop ()

let ensure_started t =
  if not t.started then begin
    t.started <- true;
    t.workers <- List.init (t.size - 1) (fun _ -> Domain.spawn (worker_loop t))
  end

let shutdown t =
  if t.started then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.started <- false;
    t.stop <- false
  end

(* Enqueue [tasks] and block until all have run; the caller drains
   alongside the workers. Exceptions raised by a task are caught by
   the caller-provided wrapper below, never here, so the queue
   machinery itself cannot wedge a worker. *)
let run_all t tasks =
  let n = List.length tasks in
  if n = 0 then ()
  else if t.size <= 1 || n <= 1 || in_worker () then List.iter (fun f -> f ()) tasks
  else begin
    ensure_started t;
    let remaining = Atomic.make n in
    let done_m = Mutex.create () in
    let done_c = Condition.create () in
    let wrap f () =
      f ();
      Mutex.lock done_m;
      if Atomic.fetch_and_add remaining (-1) = 1 then Condition.broadcast done_c;
      Mutex.unlock done_m
    in
    Mutex.lock t.m;
    List.iter (fun f -> Queue.push (wrap f) t.queue) tasks;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    (* Help drain, then sleep until the stragglers finish. The helping
       caller is flagged as a worker so that anything it runs cannot
       submit a nested parallel fan-out. *)
    let was_worker = in_worker () in
    Domain.DLS.set in_worker_flag true;
    let rec help () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock t.m;
        let task = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
        Mutex.unlock t.m;
        match task with
        | Some task ->
          task ();
          help ()
        | None ->
          Mutex.lock done_m;
          while Atomic.get remaining > 0 do
            Condition.wait done_c done_m
          done;
          Mutex.unlock done_m
      end
    in
    help ();
    Domain.DLS.set in_worker_flag was_worker
  end

let map t f xs =
  let n = List.length xs in
  if t.size <= 1 || n <= 1 || in_worker () then List.map f xs
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let tasks =
      List.mapi
        (fun i x () ->
          try results.(i) <- Some (f x)
          with e -> ignore (Atomic.compare_and_set first_error None (Some e)))
        xs
    in
    run_all t tasks;
    (match Atomic.get first_error with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

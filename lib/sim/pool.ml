(* A fixed-size domain pool for embarrassingly parallel sweeps.

   Every task the harness submits builds its own [Gc.t] (heap, remsets,
   PRNG, statistics), so tasks share no mutable state and results are a
   deterministic function of the task alone; the pool only changes
   *when* each task runs. [map] therefore returns results in input
   order and is observationally identical at any job count.

   The queue machinery lives in [Beltway_util.Team]: Mutex+Condition
   task queue, lazily spawned workers, and a submitting domain that
   participates in draining, so a pool of [jobs] keeps exactly [jobs]
   domains busy ([jobs - 1] spawned workers plus the caller). Nested
   parallel maps downgrade to sequential execution via the team's
   domain-local worker flag. *)

module Team = Beltway_util.Team

type t = Team.t

let max_jobs = Team.max_size

let env_jobs () =
  match Sys.getenv_opt "BELTWAY_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let recommended_jobs () =
  match env_jobs () with
  | Some n -> min n max_jobs
  | None -> min (Domain.recommended_domain_count ()) max_jobs

let create ~jobs = Team.create ~size:jobs
let jobs t = Team.size t
let shutdown t = Team.shutdown t

(* The shared default pool, sized by --jobs / BELTWAY_JOBS /
   recommended_domain_count, in that priority order. *)
let default_pool : t option ref = ref None
let chosen_jobs : int option ref = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let jobs = match !chosen_jobs with Some n -> n | None -> recommended_jobs () in
    let p = create ~jobs in
    default_pool := Some p;
    at_exit (fun () -> shutdown p);
    p

let set_default_jobs n =
  let n = max 1 (min n max_jobs) in
  (match !default_pool with
  | Some p when jobs p <> n ->
    shutdown p;
    default_pool := None
  | _ -> ());
  chosen_jobs := Some n

let default_jobs () = jobs (default ())

let map ?pool f xs =
  let p = match pool with Some p -> p | None -> default () in
  Team.map p f xs

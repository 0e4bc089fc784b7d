(** A fixed-size team of OCaml 5 domains draining a shared task queue.

    The engine behind the harness pool ([Beltway_sim.Pool]). The submitting
    domain always participates in draining, so a team of [size] keeps
    exactly [size] domains busy ([size - 1] spawned workers plus the
    caller). Worker domains are spawned lazily on the first parallel
    submission and joined by {!shutdown}.

    Nested submissions (from a worker, or from a domain currently
    helping another {!map}) downgrade to sequential execution
    on the caller — the queue has no dependency tracking, and this is
    what makes nesting deadlock-free. *)

type t

val create : size:int -> t
(** A team running at most [size] tasks concurrently (clamped to
    [1, 64]). *)

val size : t -> int

val in_worker : unit -> bool
(** Whether the calling domain is a team worker (or is helping drain a
    submission); any team fan-out from such a domain runs
    sequentially. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, up to [size]
    concurrently, returning results in input order. With [size = 1], a
    singleton list, or from inside a worker, this is exactly
    [List.map f xs] on the calling domain. If any application raises,
    one such exception is re-raised after all tasks finish. *)

val shutdown : t -> unit
(** Stop and join the team's workers; the team restarts lazily if used
    again. *)

val max_size : int
(** The clamp applied to [size] (64). *)

(** The GC flight recorder.

    Attached to a heap via [State.hooks], the recorder keeps a
    fixed-capacity {!Ring} of structured events — collection pauses
    with their phase spans (roots, remset/card drain, Cheney copy,
    frame free), frame grants and frees, belt advances, copy-reserve
    samples, trigger firings — each stamped on the wall clock
    (microseconds since attach) and, for collections, the allocation
    clock. Alongside the ring it aggregates a {!Metrics} registry
    (pause and interval distributions, bytes copied, per-belt and
    per-increment occupancy, remembered-set pressure).

    Cost when detached: zero — no recorder state exists and every hook
    dispatch site in the collector short-circuits on the empty hook
    list. Cost when attached: O(1) per event, no per-slot or
    barrier-fast-path instrumentation. *)

type event =
  | Collection of {
      n : int;
      reason : Beltway.Gc_stats.reason;
      emergency : bool;
      full_heap : bool;
      start_us : float;
      dur_us : float;
      clock_words : int;  (** allocation clock at pause start *)
      copied_words : int;
      freed_frames : int;
      frames_after : int;
      reserve_frames : int;
    }  (** one complete collection pause *)
  | Phase of {
      n : int;  (** ordinal of the enclosing collection *)
      phase : Beltway.Gc_stats.gc_phase;
      start_us : float;
      dur_us : float;
    }  (** one phase span, nested inside collection [n]'s pause *)
  | Frame_grant of { t_us : float; frame : int; belt : int; during_gc : bool }
  | Frame_free of { t_us : float; frame : int; belt : int }
  | Belt_advance of { t_us : float; belt : int; inc_id : int; stamp : int }
  | Reserve of { t_us : float; frames : int }
      (** copy reserve sampled at the end of a collection *)
  | Trigger_fired of { t_us : float; reason : Beltway.Gc_stats.reason }

type t

val default_capacity : int

val attach : ?capacity:int -> Beltway.Gc.t -> t
(** Install the recorder's hooks (capacity = ring size in events,
    default {!default_capacity}). Events beyond capacity overwrite the
    oldest; see {!dropped}. *)

val detach : t -> unit
(** Remove the hooks; the recorded data stays readable. *)

val gc : t -> Beltway.Gc.t
val metrics : t -> Metrics.t

val events : t -> event list
(** Retained events, oldest first. *)

val iter_events : t -> (event -> unit) -> unit
val event_count : t -> int

val dropped : t -> int
(** Events lost to ring overflow. *)

val collections : t -> int
(** Complete pauses recorded (grows without bound; pauses are also kept
    outside the ring for the MMU cross-check). *)

val pause_starts_us : t -> float array
(** Wall-clock start of every recorded pause, in collection order. *)

val pause_durs_us : t -> float array
(** Wall-clock duration of every recorded pause, in collection order —
    the recorded timeline [Beltway_sim.Mmu.crosscheck] compares against
    the cost-model reconstruction. *)

val env_file : unit -> string option
(** [$BELTWAY_TRACE]: the trace output file requested by the
    environment, if any (the CLIs' default for [--trace]). *)

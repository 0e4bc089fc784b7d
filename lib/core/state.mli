(** The mutable collector state shared by the barrier, triggers,
    collector and schedule.

    Layering: [State] owns the belts, frame budget and stamp counters
    and offers mechanical operations (create an increment, grant it a
    frame, free it) plus the installed {!policy} record;
    [Write_barrier], [Copy_reserve], [Collector] and
    [Trigger]/[Schedule] are mechanism that dispatches through that
    policy; [Policy] builds policies from configurations; [Gc] is the
    public facade. *)

exception Out_of_memory of string
(** The program does not fit this heap size under this configuration —
    the analogue of a benchmark "failing to run" at a heap size in the
    paper's figures. *)

type hooks = {
  on_alloc : addr:Addr.t -> tib:Value.t -> nfields:int -> unit;
      (** after an object is initialised (header + TIB written, fields
          null), for every allocation path: nursery, pretenured, LOS *)
  on_write : obj:Addr.t -> field:int -> value:Value.t -> unit;
      (** after a mutator field store (and its barrier record) *)
  on_move : src:Addr.t -> dst:Addr.t -> unit;
      (** after the collector relocates an object: a Cheney evacuation
          (forwarding pointer installed) or a compaction slide. Fired
          only for objects whose address actually changed. *)
  on_object_dead : addr:Addr.t -> words:int -> unit;
      (** a non-moving strategy found the object unreachable and is
          reclaiming it in place (its words become a free-list filler
          or are slid over); fired during the sweep/compact phase,
          before the words are reused. Copying collections never fire
          it — death is implied by frame free there. *)
  on_collect_start : reason:Gc_stats.reason -> emergency:bool -> unit;
      (** on entering a collection, before any evacuation *)
  on_collect_end : full_heap:bool -> unit;
      (** after a collection completes and the heap is consistent
          (evacuated increments freed, statistics recorded); not fired
          when a collection aborts with [Out_of_memory] *)
  on_gc_phase : phase:Gc_stats.gc_phase -> enter:bool -> unit;
      (** entering/leaving one phase of a collection (roots, remset or
          card drain, Cheney copy, frame free), strictly nested inside
          the collect start/end pair *)
  on_frame_grant : frame:int -> belt:int -> during_gc:bool -> unit;
      (** after a frame is granted to an increment and stamped *)
  on_frame_free : frame:int -> belt:int -> unit;
      (** after a collected increment's frame is returned to the
          memory substrate *)
  on_belt_advance : belt:int -> inc_id:int -> stamp:int -> unit;
      (** a fresh increment was opened at the back of a belt *)
  on_reserve : frames:int -> unit;
      (** copy-reserve size sampled at the end of each collection *)
  on_trigger : reason:Gc_stats.reason -> unit;
      (** a collection trigger fired (before the plan is chosen); not
          reported for explicitly forced collections *)
  on_barrier_slow : entries:int -> unit;
      (** after a write-barrier slow path inserted a remembered-set
          entry; [entries] is the new remset total *)
}
(** Observation hooks for heap-analysis tools (the shadow-heap
    sanitizer, verification-every-n testing, the [Beltway_obs] flight
    recorder). Hooks observe; they must not allocate on or otherwise
    mutate the heap being observed. Every dispatch site first matches
    on the empty hook list, so a heap with no hooks installed pays one
    branch per site and nothing more. *)

val noop_hooks : hooks
(** All-no-op record, for [{ noop_hooks with ... }] updates. *)

(** {2 The policy layer}

    A {!policy} record owns the four decisions the paper's knobs
    parameterise: target choice, barrier discipline, the trigger
    cascade, and the copy-reserve rule. The type lives here (not in
    [Policy]) because its closures consume the state that stores them —
    the same mutual-recursion-by-placement as {!hooks}; [Policy]
    constructs the records and owns the registry. Hot-path decisions
    ({!barrier_discipline}, the promotion map) are plain data read per
    operation; closures run only per collection and per allocation
    slow path, so the barrier fast path and Cheney inner loop never
    dispatch through a closure. *)

type barrier_discipline =
  | Barrier_remsets of { nursery_filter : bool }
      (** remembered sets of slot addresses; [nursery_filter] skips
          even the stamp compare for stores whose source lies in the
          single open nursery increment (sound only under belt-major
          stamping with a one-increment nursery) *)
  | Barrier_cards  (** unconditional frame-granularity card marking *)

type alloc_action =
  | Alloc_grant  (** grant the allocation increment one more frame *)
  | Alloc_collect of Gc_stats.reason  (** collect now, for this reason *)
  | Alloc_open_nursery
      (** open a further increment on the allocation belt (older-first:
          a full nursery opens a new window rather than collecting) *)
  | Alloc_split_nursery
      (** time-to-die: seal the nursery and open a fresh increment the
          next nursery collection will spare *)

(** {2 The reclamation-strategy layer}

    A {!strategy} record owns *how* a plan's increments are reclaimed —
    Cheney evacuation, bitmap mark-sweep, or threaded mark-compact —
    orthogonal to the {!policy}, which owns what to collect and when.
    Like [policy], the type lives here because its closure consumes the
    state that stores it; [Strategy] constructs the records and owns
    the registry, and [Collector] dispatches on {!strategy_kind} once
    per collection. *)

type strategy_kind =
  | Strategy_copying  (** Cheney evacuation (the pre-strategy collector) *)
  | Strategy_marksweep  (** mark bitmap + free-list sweep, in place *)
  | Strategy_markcompact  (** mark bitmap + threaded slide, in place *)

type t = {
  mem : Memory.t;
  boot : Boot_space.t;
  types : Type_registry.t;
  roots : Roots.t;
  ftab : Frame_table.t; (** flat per-frame stamps + packed GC metadata *)
  config : Config.t;
  policy : policy; (** the installed collector policy *)
  strategy : strategy; (** the installed reclamation strategy *)
  heap_frames : int; (** collector-owned frame budget *)
  belts : Belt.t array;
  belt_bounds : int option array; (** resolved increment bounds per belt *)
  remsets : Remset.t;
  cards : Card_table.t; (** used when the configuration selects [Cards] *)
  stats : Gc_stats.t;
  mutable inc_by_id : Increment.t option array;
      (** id -> live increment as a grow-on-demand array: the one
          increment lookup, an array read on the collection fast path *)
  mutable live_incs : int;
      (** count of [Some] entries in [inc_by_id], kept by the
          increment constructors and [free_increment] *)
  gc_slots : int Beltway_util.Vec.t;
      (** reused scratch for the collector's remembered-slot snapshot *)
  gc_pinned : Increment.t Beltway_util.Vec.t;
      (** reused scratch for the collector's pinned grey set *)
  gc_mark_stack : int Beltway_util.Vec.t;
      (** reused scratch for the marking strategies' explicit mark
          stack (grey object addresses) *)
  mutable frames_used : int;
  mutable next_inc_id : int;
  mutable seq : int; (** stamp sequence counter *)
  mutable epoch : int; (** epoch for [Epoch] stamp mode (BOF flips) *)
  mutable in_gc : bool;
      (** set for the length of a collection by [Collector.collect];
          still set afterwards only if that collection raised part-way,
          which marks the heap as abandoned *)
  mutable gcs_this_alloc : int; (** cascade guard *)
  mutable live_est_frames : int;
      (** survivors of the most recent full-heap collection (0 before
          the first): a cheap live-set statistic. *)
  mutable hooks : hooks list;
      (** installed observation hooks; empty in the common case, and
          the dispatch sites are a single [match] away from free when
          it is *)
  mutable alloc_site : int;
      (** allocation-site id the next [on_alloc] firing is attributed
          to; 0 is the catch-all "unknown" site. Instrumented mutators
          store here right before allocating; the collector never
          reads it. *)
  site_names : string Beltway_util.Vec.t;
      (** site id -> label; index 0 is "unknown". OCaml-side only —
          registering sites never touches the simulated heap. *)
  site_ids : (string, int) Hashtbl.t;  (** label -> site id *)
}

and policy = {
  policy_name : string;  (** registry key, for reporting *)
  barrier : barrier_discipline;
  promote : int array;
      (** destination belt for survivors of each configured belt
          (indexed by source belt; pinned LOS increments never move) *)
  stamp_priority : t -> belt:int -> int;
      (** priority class of the next increment opened on [belt]
          (belt-major, epoch-based, ...) *)
  target : t -> Increment.t list;
      (** candidate target increments in decreasing preference order;
          the schedule takes the downward closure of the first feasible
          one and degrades along the rest *)
  reserve_frames : t -> int;  (** conservative copy reserve in frames *)
  alloc_trigger : t -> size:int -> alloc_action;
      (** trigger cascade for a nursery allocation that does not fit *)
  pretenure_trigger : t -> alloc_action;
      (** trigger cascade for a pretenured (higher-belt) allocation *)
  large_trigger : t -> incoming_frames:int -> alloc_action;
      (** trigger cascade before admitting a pinned large object *)
  refresh_nursery : t -> unit;
      (** run when no open nursery increment exists, before a new one
          is created (BOF: flip the belts) *)
}

and strategy = {
  strategy_name : string;  (** registry key, for reporting *)
  strategy_kind : strategy_kind;
  strategy_moving : bool;
      (** whether surviving objects change address (copying: across
          frames; mark-compact: within the increment's own frames) *)
  strategy_needs_reserve : bool;
      (** whether collections need destination frames up front (the
          schedule's feasibility test and the heap-full trigger) *)
  strategy_reserve : t -> int;
      (** reserve frames to hold back; the copying strategy delegates
          to the installed policy's rule verbatim *)
}

val copying_strategy : strategy
(** The Cheney-evacuation strategy: exactly the pre-strategy collector
    (its reserve rule is the installed policy's, its kernel the
    Cheney copy loop), so every pre-strategy
    configuration behaves byte-identically. *)

val add_hooks : t -> hooks -> unit
(** Install an observation hook set (appended; hooks fire in
    installation order). *)

val remove_hooks : t -> hooks -> unit
(** Uninstall a hook set previously passed to {!add_hooks} (matched by
    physical identity). *)

val register_site : t -> name:string -> int
(** Intern an allocation-site label, returning its dense id
    (idempotent: the same label always yields the same id). Id 0 is
    the pre-registered "unknown" site. Registration allocates nothing
    on the simulated heap. *)

val site_count : t -> int
(** Number of registered sites, including "unknown". *)

val site_name : t -> int -> string
(** Label of a site id; out-of-range ids map to "unknown". *)

val create :
  ?strategy:strategy ->
  config:Config.t ->
  policy:policy ->
  heap_frames:int ->
  frame_log_words:int ->
  unit ->
  t
(** Fresh state with an empty heap under the given policy (resolve one
    from the configuration with [Policy.resolve]; [Gc.create] does)
    and reclamation strategy (default {!copying_strategy}; resolve one
    with [Strategy.resolve]). [heap_frames] is the collector's budget;
    the underlying memory is sized with headroom for the boot space.
    @raise Invalid_argument on a configuration that fails
    [Config.validate]. *)

val heap_words : t -> int
val free_frames : t -> int
val total_increments : t -> int
val live_words : t -> int
(** Sum of increment occupancy in words (an upper bound on live data;
    includes garbage not yet collected). *)

val stamp_for_belt : t -> int -> int
(** Next collect stamp for an increment created on the given belt
    (consumes a sequence number; the priority class comes from the
    policy's [stamp_priority]). *)

val dest_belt : t -> int -> int
(** Destination belt for survivors of an increment on the given belt:
    one read of the policy's precomputed promotion map. *)

val new_increment : t -> belt:int -> Increment.t
(** Create an empty increment at the back of the belt. *)

val grant_frame : t -> Increment.t -> during_gc:bool -> unit
(** Give the increment one more frame, charging the budget and stamping
    the frame. @raise Out_of_memory when the budget is exhausted (the
    schedule must prevent this for mutator allocation; during GC it
    means the copy reserve was insufficient despite padding, i.e. the
    heap is simply too small). *)

val open_inc : t -> belt:int -> Increment.t
(** The back increment of the belt if it can still receive objects and
    is not in the current plan (its [in_plan] flag); otherwise a fresh
    increment. *)

val free_frame : t -> Increment.t -> int -> unit
(** Return one frame of the increment to the memory substrate, dropping
    its frame metadata, cards and the remsets relating to it; the
    increment's own frame list is the caller's to update. *)

val free_increment : t -> Increment.t -> unit
(** Release a collected increment: {!free_frame} on each of its frames,
    then removed from its belt. *)

val inc_of_frame : t -> int -> Increment.t option
(** Owning increment of a frame, if any. *)

val live_increments : t -> Increment.t list
(** All increments, front-to-back per belt, belts in index order. *)

val frame_of_addr : t -> Addr.t -> int
val stamp_of_addr : t -> Addr.t -> int

val regular_belts : t -> int
(** Number of configured belts (excluding the LOS belt, if any). *)

val los_belt : t -> int option
(** Index of the large-object-space belt when the configuration
    enables one ([+los:N]); always the highest belt. *)

val new_pinned_increment : t -> size:int -> Increment.t
(** Allocate a pinned single-object increment of [size] words on the
    LOS belt (contiguous frames, charged to the budget). The caller
    (schedule) must have made room first.
    @raise Out_of_memory if the budget cannot cover it.
    @raise Invalid_argument when the configuration has no LOS. *)

val flip_belts : t -> unit
(** BOF flip: swap belt 0 and belt 1 contents and advance the epoch.
    @raise Invalid_argument unless the configuration enables
    flipping. *)

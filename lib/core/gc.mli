(** The public mutator-facing interface to a Beltway heap.

    Typical use:
    {[
      let cfg = Result.get_ok (Beltway.Config.parse "25.25.100") in
      let gc = Beltway.Gc.create ~config:cfg ~heap_bytes:(2 * 1024 * 1024) () in
      let point = Beltway.Gc.register_type gc ~name:"point" in
      let a = Beltway.Gc.alloc gc ~ty:point ~nfields:2 in
      Beltway.Gc.write gc a 0 (Beltway.Value.of_int 42)
    ]}

    {b Address validity.} Objects move. An address returned by
    {!alloc} (or read from the heap) is valid only until the next call
    to {!alloc}, {!collect} or {!full_collect}; to hold an object
    across allocations, keep it in a root slot ({!roots}: globals or
    the shadow stack) and re-read it afterwards. {!write} and {!read}
    never move objects. *)

type t

exception Out_of_memory of string
(** The program does not fit this heap size under this configuration. *)

val create :
  ?frame_log_words:int ->
  ?gc_domains:int ->
  config:Config.t ->
  heap_bytes:int ->
  unit ->
  t
(** A fresh heap. [frame_log_words] (default 10, i.e. 4 KiB frames)
    sets the frame granularity; [heap_bytes] is the collector's
    budget, rounded up to whole frames (minimum 4 frames). The
    collector policy is resolved from the configuration through
    [Policy.resolve] (its default for the configuration's order, or
    the explicit [+policy:NAME] selection), and the reclamation
    strategy through [Strategy.resolve] (copying unless
    [+strategy:NAME] selects otherwise). Collections run on the
    calling domain. [gc_domains] accepts only [1]: it remains because
    [perfbench/perf.ml] passes [~gc_domains:1], and goes with the next
    change to that benchmark.
    @raise Invalid_argument on an invalid configuration, an unknown
    policy or strategy, or a [gc_domains] other than 1. *)

val register_type : t -> name:string -> Type_registry.id
(** Register (or look up) a type; allocates its immortal type object in
    the boot space. *)

val tib_value : t -> Type_registry.id -> Value.t
(** The type's TIB reference (immortal, never moves) — cacheable by a
    runtime that wants type checks as a single word compare, and the
    [tib] argument of {!alloc_small_fast}. *)

val alloc_small_fast : t -> tib:Value.t -> nfields:int -> Addr.t
(** The allocation fast path, exposed for inlining at a language
    runtime's hot allocation sites (the Jikes RVM / MMTk technique):
    exactly {!alloc}'s nursery bump hit — init, stats, TIB barrier
    write and hooks included — or [Addr.null], with no side effect,
    when the slow path must run (negative field count, LOS-sized
    request, no open nursery, or no room). {!alloc} itself tries it
    first. On [Addr.null] the caller falls back to {!alloc};
    the composition is behaviourally identical to calling {!alloc}
    directly. [tib] must come from {!tib_value}. *)

val alloc : t -> ty:Type_registry.id -> nfields:int -> Addr.t
(** Allocate an object with [nfields] null fields. May collect first;
    never collects after allocating, so the returned address is valid
    until the mutator's next allocation. The type-object (TIB)
    reference is written through the write barrier, as in Jikes RVM.
    @raise Out_of_memory when the heap is too small. *)

val alloc_pretenured : t -> ty:Type_registry.id -> nfields:int -> belt:int -> Addr.t
(** Allocate directly on a higher belt — the framework's segregation by
    allocation site (pretenuring of long-lived or immortal data, paper
    S5). [belt] must be a configured belt index >= 1. The same
    address-validity contract as {!alloc} applies.
    @raise Invalid_argument for belt 0 or an out-of-range belt. *)

val write : t -> Addr.t -> int -> Value.t -> unit
(** [write t obj i v]: store [v] into field [i] of [obj], through the
    write barrier when [v] is a reference. *)

val read : t -> Addr.t -> int -> Value.t

val nfields : t -> Addr.t -> int
val type_of : t -> Addr.t -> Type_registry.id option
(** The object's type, recovered from its TIB reference. *)

val roots : t -> Roots.t
val stats : t -> Gc_stats.t
val config : t -> Config.t

val policy_name : t -> string
(** Registry name of the installed collector policy (see
    [Policy.registry]). *)

val strategy_name : t -> string
(** Registry name of the installed reclamation strategy (see
    [Strategy.registry]); ["copying"] unless the configuration selected
    another with [+strategy:NAME]. *)

val collect : t -> unit
(** Force one policy collection (no-op on an empty heap). *)

val full_collect : t -> unit
(** Force a collection of every increment. *)

val heap_frames : t -> int
val frame_bytes : t -> int
val heap_bytes : t -> int
val frames_used : t -> int
val words_allocated : t -> int
val bytes_allocated : t -> int
val live_words_upper_bound : t -> int
(** Occupied words across all increments (live data plus uncollected
    garbage). *)

val reserve_frames : t -> int
(** The copy reserve currently in force (paper S3.3.4). *)

val register_site : t -> name:string -> int
(** Intern an allocation-site label (see {!State.register_site}):
    idempotent, dense ids, id 0 is "unknown". Never allocates on the
    simulated heap, so site registration cannot perturb GC behaviour. *)

val set_alloc_site : t -> int -> unit
(** Attribute subsequent allocations to a site id. The channel is
    sticky: instrumented mutators set it immediately before every
    allocation; uninstrumented allocations inherit the last value
    (initially 0, "unknown"). Only observation hooks read it. *)

val alloc_site : t -> int
(** The site id currently in force. *)

val site_name : t -> int -> string
(** Label of a site id ("unknown" for out-of-range ids). *)

val site_count : t -> int
(** Number of registered sites, including "unknown". *)

val type_name : t -> Type_registry.id -> string
(** Registered name of a type id (for site labels derived from types). *)

val state : t -> State.t
(** The underlying state — for the integrity verifier, the oracle and
    white-box tests; mutating it directly voids all warranties. *)

val pp_heap : Format.formatter -> t -> unit
(** A human-readable snapshot of the belt structure: per belt, its
    increments front-to-back with id, stamp, frames, occupancy and
    flags — the debugging view of Figure 2. *)

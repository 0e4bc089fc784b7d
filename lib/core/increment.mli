(** Increments: the unit of collection (paper S2.2).

    An increment is an independently collectible region of memory,
    realised as an ordered list of frames sharing one collect stamp,
    with bump-pointer allocation in the last frame. Because copying
    never packs perfectly (frame tails are wasted when an object does
    not fit), each retired frame remembers how many words it actually
    used, which lets a Cheney scan walk the increment's objects without
    any per-frame object table. *)

type free_list
(** An increment's free list (see {!section-free}); reachable only
    through this module's functions, so its holes, word count and index
    cannot be desynchronised from outside. *)

type t = {
  id : int;
  mutable belt : int; (* belt index; updated when BOF flips belts *)
  mutable stamp : int;
  frames : int Beltway_util.Vec.t; (* frame indices, allocation order *)
  frame_used : int Beltway_util.Vec.t; (* used words per retired frame *)
  mutable cursor : Addr.t; (* bump pointer; null if no frame yet *)
  mutable limit : Addr.t; (* end of current frame *)
  mutable words_used : int; (* live-words estimate: words ever bumped *)
  mutable objects : int; (* objects allocated/copied into this increment *)
  bound_frames : int option; (* None = may grow to all usable memory *)
  mutable sealed : bool; (* closed to further allocation *)
  pinned : bool;
      (* a large-object-space increment: exactly one object, never
         copied; reclaimed whole when unreachable *)
  mutable in_plan : bool;
      (* member of the plan currently being collected; lets the
         collector and [State.open_inc] test plan membership without a
         hashtable. Always false outside a collection. *)
  mutable gc_mark : bool;
      (* transient per-collection mark (pinned increment reached, or
         queued for a card scan). Always false outside a collection. *)
  free : free_list;
      (* the holes a sweep left; empty under the copying strategy *)
}

type pos
(** A scan position within an increment (Cheney scan pointer). *)

val create :
  id:int -> belt:int -> stamp:int -> bound_frames:int option -> t

val create_pinned :
  id:int -> belt:int -> stamp:int -> frames:int list -> Memory.t -> size:int -> t
(** A sealed, pinned increment holding exactly one [size]-word object
    laid out from the base of the first frame; the frames must be
    address-contiguous (consecutive indices).
    @raise Invalid_argument on an empty frame list. *)

val base_object : t -> Memory.t -> Addr.t
(** The single object of a pinned increment.
    @raise Invalid_argument if not pinned. *)

val frame_count : t -> int

val used_of_frame : t -> Memory.t -> int -> int
(** Used words of the increment's [fi]-th frame: the recorded extent
    of a retired frame, the bump cursor's progress in the frame under
    it (zero for an index out of range). The in-place strategies walk
    and rebuild increments frame by frame with this. *)

val occupancy_frames : t -> int
(** Frames held (the collection/copy-reserve accounting unit). *)

val words_used : t -> int

val wasted_words : t -> Memory.t -> int
(** Frame words held minus words used (fragmentation at frame seams,
    the reason the paper's copy reserve must be "slightly more
    generous"). *)

val at_bound : t -> bool
(** True when [bound_frames] is reached and the current frame cannot be
    extended further. *)

val add_frame : t -> Memory.t -> int -> unit
(** Append a freshly allocated frame and point the bump cursor at it.
    The caller owns budget accounting and frame-info stamping.
    @raise Invalid_argument if sealed or at bound. *)

val try_bump : t -> size:int -> Addr.t option
(** Bump-allocate [size] words in the current frame; [None] when it
    does not fit (caller decides whether to extend or collect). The
    returned address is uninitialised (zeroed) memory. *)

val bump_or_null : t -> size:int -> Addr.t
(** {!try_bump} without the [option] cell: [Addr.null] when the
    allocation does not fit. The allocation-free form the collector's
    copy loop and the mutator allocation path use. *)

val seal : t -> unit
(** Close to further allocation (nursery handoff for the time-to-die
    trigger; plan membership seals too). *)

(** {2:free Free-list reallocation}

    The mark-sweep strategy turns each dead run into a *filler object*
    (even header, odd-immediate payload) so the object stream stays
    walkable, and records each hole as an (address, words) pair in a
    numbered slot. Allocation is first-fit over the slots with a
    remainder rule: a hole is taken exactly (its pair is swap-removed:
    the last pair moves into its slot) or split in place, leaving at
    least [Object_model.header_words] words for the remainder filler.

    First-fit is answered by a max-tree over the slots' hole sizes, not
    by a scan: leaf [k] holds slot [k]'s size and each node the larger
    of its children. {!push_free} only marks the tree stale; the next
    query rebuilds it in one pass, and a split or removal rewrites the
    touched leaves' paths to the root. The answer is the slot a
    front-to-back scan returns: the descent goes left-first and skips a
    subtree only when it holds no fit. A subtree's largest hole decides
    that in every case but one. Under [size] there is no fit; at
    exactly [size] or at least [size + header_words] there is one.
    Between the two (a hole whose remainder could not be represented)
    the subtree may or may not hold a fit, so the descent enters it and
    backs out if it finds none. That is the only non-monotone case.
    The tree holds at most [2 * 2^ceil(log2 n)] ints for the [n] holes
    present at its last rebuild (two for [n <= 1]). Copying increments
    never populate the list and answer every query from the word count,
    before touching the tree. *)

val clear_free_list : t -> unit
val push_free : t -> addr:Addr.t -> words:int -> unit

val free_words : t -> int
(** Total words on the free list (an upper bound on what
    {!fit_or_null} can place). *)

val holes : t -> (Addr.t * int) list
(** The (address, words) pairs in slot order. *)

val fits_free : t -> size:int -> bool
(** Whether some hole admits a [size]-word object under the remainder
    rule — the schedule's must-this-allocation-trigger test. *)

val fit_or_null : t -> Memory.t -> size:int -> Addr.t
(** Take the first fitting hole in slot order: returns zeroed memory
    like a fresh bump, writes the remainder filler when splitting, or
    [Addr.null] when no hole fits. *)

val alloc_or_null : t -> Memory.t -> size:int -> Addr.t
(** {!bump_or_null}, falling back to {!fit_or_null} when the bump
    fails and the increment is not sealed. *)

val scan_pos : t -> pos
(** Position at the current frontier: subsequent copies into this
    increment will be scanned from here. *)

val start_pos : t -> pos
(** Position at the first object (integrity walks, oracle). *)

val scan_pending : t -> Memory.t -> pos -> bool
(** Whether objects remain between [pos] and the frontier (normalises
    [pos] across frame seams as a side effect). *)

val scan_step : t -> Memory.t -> pos -> Addr.t
(** Object address at [pos], advancing [pos] past it.
    @raise Invalid_argument if nothing is pending. *)

val scan_next : t -> Memory.t -> pos -> Addr.t
(** {!scan_pending} and {!scan_step} in one call: the next object
    address (advancing [pos] past it), or [Addr.null] when the scan has
    reached the frontier. Normalises [pos] once per object, where the
    pending/step pair normalises three times. *)

val iter_objects : t -> Memory.t -> (Addr.t -> unit) -> unit
(** Walk every object currently in the increment from the beginning.
    Unsafe during collection of this increment (headers may be
    forwarding pointers). *)

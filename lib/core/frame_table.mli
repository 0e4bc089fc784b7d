(** Flat per-frame collector metadata: the GC hot-path side tables.

    The successor of the legacy [Frame_info] oracle's two bare arrays (now [Beltway_check.Frame_info], kept as the differential-test reference), extended so the
    collector's [forward] never touches a hashtable: each frame carries
    its collect stamp (paper S3.3.1) plus a packed word holding the
    owning increment id, a pinned bit (large-object increments are
    marked in place, never copied) and an in-plan bit (set for exactly
    the frames of the increments being collected, for the duration of
    one collection). Plan membership, pinnedness and the source
    increment id therefore resolve from one array load, and the stamp
    from a second — no [Hashtbl.mem], no closure.

    Stamps are [priority * 2^40 + sequence] exactly as before
    ([Beltway_check.Frame_info] documents the scheme); they keep a dedicated array
    because {!immortal_stamp} is [max_int], which no packing could
    share a word with. *)

type t

val immortal_stamp : int
(** Greater than any assignable stamp; boot/immortal frames never
    appear younger than any heap frame. *)

val priority_unit : int
(** The multiplier separating stamp priority classes ([2^40]). *)

val no_stamp : int
(** Stamp reported for unowned frames ([-1]); never satisfies the
    remember predicate as a target. *)

val create : unit -> t

val set : t -> frame:int -> stamp:int -> incr:int -> pinned:bool -> unit
(** Install metadata when a frame is handed to an increment (or to the
    boot space, with [incr = -1]). Clears the in-plan bit. *)

val clear : t -> frame:int -> unit
(** Reset metadata when a frame is freed. *)

val restamp : t -> frame:int -> stamp:int -> unit
(** Update only the stamp (BOF belt flips renumber surviving belts). *)

val set_in_plan : t -> frame:int -> bool -> unit
(** Flip the in-plan bit; the collector sets it over the plan's frames
    at the start of a collection and it is cleared when the frame is
    freed or (for retained pinned increments) when the collection
    ends. *)

val stamp : t -> int -> int
(** Collect stamp of a frame; {!no_stamp} for unowned frames. *)

val incr_of : t -> int -> int
(** Owning increment id of a frame, or [-1]. *)

val pinned : t -> int -> bool
val in_plan : t -> int -> bool

(** {2 Packed-word access}

    The collector's inner loop loads the packed word once with {!meta}
    and decodes the fields it needs; {!pack} is exposed for the
    property tests that check the packing round-trips. *)

val meta : t -> int -> int
(** The packed metadata word of a frame ({!no_meta} when unowned). *)

val no_meta : int
(** The word of an unowned frame ([0]): no increment, no flags. *)

val pack : incr:int -> pinned:bool -> in_plan:bool -> int
val meta_incr : int -> int
val meta_pinned : int -> bool
val meta_in_plan : int -> bool

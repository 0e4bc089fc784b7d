(** The root set: global slots and a shadow stack.

    Mutators never hold raw addresses across a potential collection;
    they hold *root slots* that the collector updates when objects
    move. Two kinds are provided:

    - {e globals}: stable numbered slots, the analogue of static fields
      (workload generators keep their live-object tables here);
    - {e shadow stack}: LIFO slots for temporaries, the analogue of
      thread stacks (the Beltlang interpreter roots its environments
      and evaluation temporaries here with mark/release discipline). *)

type t

type global = private int
(** Stable handle to a global slot. *)

val create : unit -> t

(** {2 Globals} *)

val new_global : t -> Value.t -> global
val get_global : t -> global -> Value.t
val set_global : t -> global -> Value.t -> unit

val global_count : t -> int
val global_of_int : int -> global
(** Escape hatch for tables indexed by dense ints; the int must come
    from a previous [new_global] (enforced on access). *)

(** {2 Shadow stack} *)

val push : t -> Value.t -> unit
val pop : t -> Value.t
val peek : t -> int -> Value.t
(** [peek t i]: [i] slots below the top (0 = top). *)

val set_peek : t -> int -> Value.t -> unit

val stack_get : t -> int -> Value.t
(** [stack_get t i]: absolute index from the bottom (0 = oldest). An
    interpreter whose current frame sits at a fixed depth uses this to
    address it across pushes and pops above it. *)

val stack_set : t -> int -> Value.t -> unit

val mark : t -> int
(** Current stack depth, for {!release}. *)

val release : t -> int -> unit
(** Truncate the stack back to a previous {!mark}. *)

val depth : t -> int

(** {2 Collector interface} *)

val iter_update : t -> (Value.t -> Value.t) -> unit
(** Apply a forwarding function to every slot (globals then stack),
    storing the result back. The collector's root-scan entry point. *)

val iter : t -> (Value.t -> unit) -> unit
(** Read-only traversal (used by the reachability oracle). *)

(** The collector: one collection driver over a *set* of increments,
    parameterised by the installed strategy's tracing kernel.

    A plan is a set of increments collected together (the downward
    closure of the chosen increment in collect-stamp order, so every
    unremembered inter-increment pointer into the plan originates
    inside the plan). Roots are the mutator root set plus every
    remembered slot whose target frame is in the plan and whose source
    frame is not (or, under card marking, every object of a dirty
    increment outside the plan).

    The driver owns everything the strategies share: the collection
    hooks and phase spans, plan membership and totals, root, remset
    and card enumeration, and the logged [Gc_stats.collection]. The
    kernel supplies the rest:
    - {b evacuate} (copying): a Cheney copy of survivors into the open
      increment of their promotion-target belt — per *source
      increment*, so one pass handles a nursery increment promoting up
      and an old increment compacting onto its own belt (the paper's
      collect-lower-and-higher-increments-together optimisation falls
      out for free) — then the evacuated frames are freed;
    - {b mark in place}: a bitmap mark after logically promoting the
      plan's increments, then a free-list sweep (mark-sweep) or a
      threaded slide within each increment's own frames
      (mark-compact).

    Either way the barrier's predicate is re-applied to every
    surviving slot under the survivors' final stamps, so all remsets
    relating to reclaimed frames can simply be dropped. *)

type plan = {
  increments : Increment.t list; (** downward-closed in stamp order *)
  reason : Gc_stats.reason;
  emergency : bool;
      (** planned although the conservative reserve test failed *)
  full_heap : bool;
}

val collect : State.t -> plan -> Gc_stats.collection
(** Run the collection: trace from the roots and remembered slots,
    reclaim the plan, log and return the collection record.
    @raise State.Out_of_memory if the copy reserve proves insufficient
    (heap too small for this program). A collection left by that or
    any other exception (a raising hook, say) is abandoned part-way,
    and every later [collect] on the same heap raises
    [State.Out_of_memory] with {!abandoned}'s message. *)

val abandoned : State.t -> string option
(** [Some message] naming the collection that raised part-way when the
    heap was abandoned that way, [None] otherwise. The message names
    the collection, not the exception: that was raised to the caller. *)

val plan_frames : plan -> int
val plan_words : plan -> int

val evacuation_frames : plan -> int
(** Frames the plan may need to copy somewhere else: its occupancy
    minus pinned (large-object) increments, which are marked in place
    rather than evacuated. Plan feasibility is judged on this. *)

(** Heap integrity checking.

    [check] walks the heap and validates every structural invariant the
    collector relies on; it is run by the test suite after interleaved
    mutation and collection under every configuration. Checks:

    - no collection was abandoned part-way by an exception
      (reported first, since it explains any symptom below);
    - every root reference points at a well-formed, non-forwarded
      object in a frame owned by a live increment (or the boot space);
    - every reference field of every increment-resident object does
      likewise;
    - frame metadata agrees with increment membership, and per-belt
      FIFO stamp order holds (front stamps are minimal);
    - occupancy accounting matches a direct walk;
    - {b remset sufficiency}: for every object's reference slot whose
      (source frame, target frame) pair satisfies the barrier
      predicate, a remembered-set entry for that slot exists — the
      exact invariant that makes independent increment collection
      sound. Only *reachable* source objects are required to be
      covered (dead objects' slots may have been dropped with their
      frames). *)

val check : Gc.t -> (unit, string) result
(** [Ok ()] or [Error description_of_first_violation]. *)

val check_exn : Gc.t -> unit
(** @raise Failure on the first violation. *)

(** Fault injection: mutation-testing the sanitizer itself.

    Each fault seeds one defect class a Beltway implementation can
    suffer, into an otherwise healthy heap with a sanitizer attached,
    and reports whether the sanitizer flagged it. A checker that has
    never been shown to catch a bug is folklore; this harness is the
    evidence. Each injection first asserts the pre-injection heap is
    clean, so a detection cannot be a latent false positive. *)

type fault =
  | Skipped_barrier
      (** a pointer store whose write-barrier record was omitted
          (paper §3.3.2 completeness) — caught by [Verify]'s remset
          sufficiency check at level [Paranoid] *)
  | Dropped_remset
      (** a correctly recorded remset entry lost before the next
          collection — the slot misses forwarding, caught by the
          shadow diff as a stale reference after the collection *)
  | Corrupted_header
      (** an object's header word rewritten — caught by the shadow
          diff's field-count comparison *)
  | Premature_free
      (** a frame holding a live object returned to the memory
          substrate — caught by the shadow diff as a lost object *)
  | Undersized_reserve
      (** copy-reserve/frame accounting understating the frames in
          use, the precursor to reserve exhaustion (paper §3.3.4) —
          caught by [Verify]'s accounting check at level [Paranoid] *)
  | Racy_forwarding
      (** a lost forwarding install: the copying collector evacuates an
          object but the forwarding pointer never lands (a missed store,
          or two evacuations racing), so the object is copied twice and
          a slot ends up on the duplicate — caught by the shadow diff as
          a stale reference (the shadow holds the first copy) *)
  | Dropped_mark
      (** the mark-sweep strategy's defect class: the tracer drops a
          mark bit on a reachable object and the sweep turns it into a
          free-list filler — caught by the shadow diff as a clobbered
          corpse (a live parent edge still names the entry, whose TIB
          and fields the filler overwrote) *)
  | Misthreaded_compact
      (** the mark-compact strategy's defect class: Jonkers
          unthreading restores a threaded slot with the wrong
          destination address, so after the slide a parent field
          points one object past its child — caught by the shadow
          diff as a stale reference (the shadow tracked the real
          slide) *)
  | Overlapping_hole
      (** the mark-sweep free list's defect class: a stale or oversized
          hole entry covers a live object and first-fit allocates over
          it — caught by the shadow diff as a clobbered field (the new
          object's null field replaced the live object's reference) *)

val all : fault list
val name : fault -> string

val inject : fault -> (string, string) result
(** Run the injection on a fresh heap. [Ok msg]: the sanitizer flagged
    the fault; [msg] is its first violation. [Error why]: it stayed
    silent (or reported before the injection — a false positive). *)

module State = Beltway.State
module Gc = Beltway.Gc

type fault =
  | Skipped_barrier
  | Dropped_remset
  | Corrupted_header
  | Premature_free
  | Undersized_reserve
  | Racy_forwarding
  | Dropped_mark
  | Misthreaded_compact
  | Overlapping_hole

let all =
  [ Skipped_barrier; Dropped_remset; Corrupted_header; Premature_free;
    Undersized_reserve; Racy_forwarding; Dropped_mark; Misthreaded_compact;
    Overlapping_hole ]

let name = function
  | Skipped_barrier -> "skipped-barrier"
  | Dropped_remset -> "dropped-remset"
  | Corrupted_header -> "corrupted-header"
  | Premature_free -> "premature-free"
  | Undersized_reserve -> "undersized-reserve"
  | Racy_forwarding -> "racy-forwarding"
  | Dropped_mark -> "dropped-mark"
  | Misthreaded_compact -> "misthreaded-compact"
  | Overlapping_hole -> "overlapping-hole"

(* A small generational heap: 25.25.100 (optionally with a +strategy
   suffix for the in-place defect classes), 1 KiB frames, 512 KiB. *)
let setup ?(config = "25.25.100") ~level () =
  let config = Result.get_ok (Beltway.Config.parse config) in
  let gc = Gc.create ~frame_log_words:8 ~config ~heap_bytes:(512 * 1024) () in
  let san = Sanitizer.attach ~level gc in
  let ty = Gc.register_type gc ~name:"faults.node" in
  (gc, san, ty)

(* An old object (promoted off the nursery by a full collection) and a
   young one, both rooted. Returns their current addresses. *)
let old_and_young gc ty =
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:4 in
  let ga = Roots.new_global roots (Value.of_addr a) in
  Gc.full_collect gc;
  let b = Gc.alloc gc ~ty ~nfields:2 in
  let gb = Roots.new_global roots (Value.of_addr b) in
  let a = Value.to_addr (Roots.get_global roots ga) in
  (a, b, ga, gb)

let result_of san ~after =
  match Sanitizer.violations san with
  | v :: _ -> Ok v
  | [] -> Error (Printf.sprintf "sanitizer stayed silent after %s" after)

let precheck san =
  Sanitizer.check_now san;
  match Sanitizer.violations san with
  | [] -> Ok ()
  | v :: _ -> Error (Printf.sprintf "false positive before injection: %s" v)

let ( let* ) = Result.bind

(* Store old->young bypassing the barrier: the write itself lands (and
   the shadow is told, as it would be in a runtime whose barrier was
   miscompiled) but no remset entry exists. *)
let skipped_barrier () =
  let gc, san, ty = setup ~level:Sanitizer.Paranoid () in
  let a, b, _, _ = old_and_young gc ty in
  let* () = precheck san in
  let st = Gc.state gc in
  Object_model.set_field st.State.mem a 0 (Value.of_addr b);
  Sanitizer.note_write san ~obj:a ~field:0 ~value:(Value.of_addr b);
  Sanitizer.check_now san;
  result_of san ~after:"an unrecorded old-to-young pointer store"

(* Record the pointer correctly, then lose the remset entry, then let a
   real nursery collection run: the slot is never forwarded and ends up
   pointing at the young object's pre-move address. *)
let dropped_remset () =
  let gc, san, ty = setup ~level:Sanitizer.Shadow () in
  let a, b, _, _ = old_and_young gc ty in
  Gc.write gc a 0 (Value.of_addr b);
  (* Pad the nursery past min-useful size so the forced collection
     below targets it (and only it). *)
  for _ = 1 to 200 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  let* () = precheck san in
  let st = Gc.state gc in
  let slot_frame = State.frame_of_addr st (Object_model.field_addr a 0) in
  Beltway.Remset.drop_frame st.State.remsets slot_frame;
  Gc.collect gc;
  (* The sanitizer diffs at every collection; the stale slot in [a] is
     already on record. *)
  result_of san ~after:"a dropped remset entry and a nursery collection"

let corrupted_header () =
  let gc, san, ty = setup ~level:Sanitizer.Shadow () in
  let roots = Gc.roots gc in
  let c = Gc.alloc gc ~ty ~nfields:3 in
  ignore (Roots.new_global roots (Value.of_addr c));
  let* () = precheck san in
  let st = Gc.state gc in
  Memory.set st.State.mem c (1000 lsl 1);
  Sanitizer.check_now san;
  result_of san ~after:"rewriting an object's header word"

let premature_free () =
  let gc, san, ty = setup ~level:Sanitizer.Shadow () in
  let roots = Gc.roots gc in
  let d = Gc.alloc gc ~ty ~nfields:3 in
  ignore (Roots.new_global roots (Value.of_addr d));
  let* () = precheck san in
  let st = Gc.state gc in
  Memory.free_frame st.State.mem (State.frame_of_addr st d);
  Sanitizer.check_now san;
  result_of san ~after:"freeing the frame under a live object"

(* Understate the frames in use: exactly the accounting slip that lets
   the schedule admit an allocation the copy reserve cannot cover. *)
let undersized_reserve () =
  let gc, san, ty = setup ~level:Sanitizer.Paranoid () in
  let _ = old_and_young gc ty in
  let* () = precheck san in
  let st = Gc.state gc in
  st.State.frames_used <- st.State.frames_used - 1;
  Sanitizer.check_now san;
  result_of san ~after:"understating the frame budget in use"

(* A lost forwarding install: the collector copies a live object but
   the forwarding pointer never lands in the old header (a missed
   store in the Cheney copy, or two evacuations of one object racing),
   so a later visit copies it again and a slot forwarded through that
   second copy keeps a duplicate. Deterministic end-state emulation:
   carve a fresh destination, blit a duplicate of a live child there,
   and switch a parent slot onto the duplicate behind the hooks' back —
   the observable damage of the lost install. The shadow still holds
   the canonical address, so the diff must flag the slot. *)
let racy_forwarding () =
  let gc, san, ty = setup ~level:Sanitizer.Shadow () in
  let roots = Gc.roots gc in
  let parent = Gc.alloc gc ~ty ~nfields:2 in
  let gp = Roots.new_global roots (Value.of_addr parent) in
  let child = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc (Value.to_addr (Roots.get_global roots gp)) 0 (Value.of_addr child);
  (* Settle both into a post-collection heap, as the copy would. *)
  Gc.full_collect gc;
  let* () = precheck san in
  let st = Gc.state gc in
  let mem = st.State.mem in
  let parent = Value.to_addr (Roots.get_global roots gp) in
  let child = Value.to_addr (Gc.read gc parent 0) in
  let size = Object_model.size_words ~nfields:2 in
  let inc = State.new_increment st ~belt:0 in
  State.grant_frame st inc ~during_gc:false;
  let dup = Beltway.Increment.bump_or_null inc ~size in
  Memory.blit mem ~src:child ~dst:dup ~len:size;
  Memory.set mem (Object_model.field_addr parent 0) (Value.of_addr dup);
  Sanitizer.check_now san;
  result_of san ~after:"a duplicate copy left by a lost forwarding install"

(* The mark-sweep strategy's defect class: the tracer drops a mark bit
   on a reachable object, so the sweep coalesces it into a free-list
   filler. Deterministic end-state emulation (as for
   [Racy_forwarding]): after a clean in-place collection, overwrite a
   still-referenced child with exactly the filler the sweep writes over
   dead runs — an even length header and odd (immediate) payload
   words — and declare it dead through the sanitizer's own death
   channel, as the sweep's hook would. The shadow keeps the entry (a
   live parent edge still names it), so the diff must flag the
   corpse. *)
let dropped_mark () =
  let gc, san, ty =
    setup ~config:"25.25.100+strategy:marksweep" ~level:Sanitizer.Shadow ()
  in
  let roots = Gc.roots gc in
  let parent = Gc.alloc gc ~ty ~nfields:2 in
  let gp = Roots.new_global roots (Value.of_addr parent) in
  let child = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc (Value.to_addr (Roots.get_global roots gp)) 0 (Value.of_addr child);
  (* A back pointer, so the corpse's payload held a reference the
     filler visibly destroys. *)
  let child_now () = Value.to_addr (Gc.read gc parent 0) in
  Gc.write gc child 0 (Value.of_addr parent);
  (* Garbage, then a real mark-sweep collection: the precheck below
     proves the strategy itself produces no false positives. *)
  for _ = 1 to 200 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  Gc.full_collect gc;
  let* () = precheck san in
  let st = Gc.state gc in
  let mem = st.State.mem in
  let child = child_now () in
  let size = Object_model.size_words ~nfields:2 in
  Memory.set mem child ((size - Object_model.header_words) lsl 1);
  Memory.fill mem ~dst:(child + 1) ~len:(size - 1) 1;
  Shadow.note_object_dead (Sanitizer.shadow san) ~addr:child;
  Sanitizer.check_now san;
  result_of san ~after:"a reachable object swept under a dropped mark bit"

(* The mark-compact strategy's defect class: Jonkers unthreading
   restores a threaded slot with the wrong destination address (an
   off-by-one-object slip in the slide bookkeeping). Deterministic
   end-state emulation: run a real threaded compaction (garbage ahead
   of the survivors forces a slide), then redirect a parent slot to
   the address one object past its child, behind the hooks' back. The
   shadow tracked the real slide, so the diff must flag the slot. *)
let misthreaded_compact () =
  let gc, san, ty =
    setup ~config:"25.25.100+strategy:markcompact" ~level:Sanitizer.Shadow ()
  in
  let roots = Gc.roots gc in
  (* Garbage first: compaction slides the survivors down over it. *)
  for _ = 1 to 200 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  let parent = Gc.alloc gc ~ty ~nfields:2 in
  let gp = Roots.new_global roots (Value.of_addr parent) in
  let child = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc (Value.to_addr (Roots.get_global roots gp)) 0 (Value.of_addr child);
  Gc.full_collect gc;
  let* () = precheck san in
  let st = Gc.state gc in
  let mem = st.State.mem in
  let parent = Value.to_addr (Roots.get_global roots gp) in
  let child = Value.to_addr (Gc.read gc parent 0) in
  let size = Object_model.size_words ~nfields:2 in
  Memory.set mem
    (Object_model.field_addr parent 0)
    (Value.of_addr (child + size));
  Sanitizer.check_now san;
  result_of san ~after:"a slot unthreaded to the wrong compaction address"

(* The mark-sweep free list's defect class: a hole entry that no longer
   matches the heap — stale from an earlier sweep, or sized past its
   filler — so first-fit hands out words a live object still occupies.
   Deterministic end-state emulation: after a clean mark-sweep
   collection, leave the increment holding a rooted child with a single
   hole entry covering that child, then allocate the child's size
   there, as the allocator would, and initialise the new object. Its
   zeroed fields overwrite the child's back pointer, so the diff must
   flag the child. *)
let overlapping_hole () =
  let gc, san, ty =
    setup ~config:"25.25.100+strategy:marksweep" ~level:Sanitizer.Shadow ()
  in
  let roots = Gc.roots gc in
  let parent = Gc.alloc gc ~ty ~nfields:2 in
  let gp = Roots.new_global roots (Value.of_addr parent) in
  let child = Gc.alloc gc ~ty ~nfields:2 in
  Gc.write gc (Value.to_addr (Roots.get_global roots gp)) 0 (Value.of_addr child);
  Gc.write gc child 0 (Value.of_addr parent);
  for _ = 1 to 200 do
    ignore (Gc.alloc gc ~ty ~nfields:4)
  done;
  Gc.full_collect gc;
  let* () = precheck san in
  let st = Gc.state gc in
  let mem = st.State.mem in
  let child = Value.to_addr (Gc.read gc (Value.to_addr (Roots.get_global roots gp)) 0) in
  let inc = Option.get (State.inc_of_frame st (State.frame_of_addr st child)) in
  let size = Object_model.size_words ~nfields:2 in
  Beltway.Increment.clear_free_list inc;
  Beltway.Increment.push_free inc ~addr:child ~words:size;
  let addr = Beltway.Increment.fit_or_null inc mem ~size in
  if addr <> child then
    Error (Printf.sprintf "first-fit placed at %#x, not over the child at %#x" addr child)
  else begin
    Object_model.init mem addr ~tib:(Gc.tib_value gc ty) ~nfields:2;
    Sanitizer.check_now san;
    result_of san ~after:"an allocation into a hole overlapping a live object"
  end

let inject = function
  | Skipped_barrier -> skipped_barrier ()
  | Dropped_remset -> dropped_remset ()
  | Corrupted_header -> corrupted_header ()
  | Premature_free -> premature_free ()
  | Undersized_reserve -> undersized_reserve ()
  | Racy_forwarding -> racy_forwarding ()
  | Dropped_mark -> dropped_mark ()
  | Misthreaded_compact -> misthreaded_compact ()
  | Overlapping_hole -> overlapping_hole ()

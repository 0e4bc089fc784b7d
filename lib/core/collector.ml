module Vec = Beltway_util.Vec

type plan = {
  increments : Increment.t list;
  reason : Gc_stats.reason;
  emergency : bool;
  full_heap : bool;
}

let plan_frames p =
  List.fold_left (fun acc i -> acc + Increment.occupancy_frames i) 0 p.increments

let plan_words p =
  List.fold_left (fun acc i -> acc + Increment.words_used i) 0 p.increments

let evacuation_frames p =
  List.fold_left
    (fun acc (i : Increment.t) ->
      if i.Increment.pinned then acc else acc + Increment.occupancy_frames i)
    0 p.increments

(* The per-collection counts, one record for every kernel; a count a
   kernel has no use for stays 0 in the logged collection. *)
type counters = {
  mutable copied_words : int;
  mutable copied_objects : int;
  mutable scanned_slots : int;
  mutable remset_slots : int;
  mutable marked_objects : int;
  mutable marked_words : int;
  mutable swept_words : int;
  mutable moved_words : int;
  mutable freed_frames : int;
}

(* A tracing kernel: what one reclamation strategy does at each step of
   the collection the driver ([collect] below) walks. The driver
   enumerates the roots, the remembered slots and the dirty cards and
   hands each to the kernel; the per-object and per-slot loops of the
   drain and the reclaim stay inside the kernel's own closures, so the
   hot loops make no indirect call. *)
type kernel = {
  root : Value.t -> Value.t;  (** one root slot's value; the result is stored back *)
  remembered : slot:Addr.t -> Value.t -> unit;
      (** a remembered slot targeting the plan, holding this reference *)
  card_object : Addr.t -> unit;  (** one object of a dirty increment *)
  drain_phase : Gc_stats.gc_phase;
  drain : unit -> unit;  (** trace until no grey work remains *)
  reclaim_phase : Gc_stats.gc_phase;
  reclaim : unit -> unit;  (** free or rebuild every plan increment *)
}

(* Keep a plan increment that holds survivors in place, clearing its
   transient plan and mark state, or release it whole. Every kernel
   settles each plan increment through here exactly once. *)
let settle st c (inc : Increment.t) ~keep =
  if keep then begin
    inc.Increment.gc_mark <- false;
    inc.Increment.in_plan <- false;
    Vec.iter
      (fun f -> Frame_table.set_in_plan st.State.ftab ~frame:f false)
      inc.Increment.frames
  end
  else begin
    c.freed_frames <- c.freed_frames + Increment.occupancy_frames inc;
    State.free_increment st inc
  end

(* ------------------------------------------------------------------ *)
(* Evacuation: the Cheney copy.

   The hot path below is deliberately allocation-free per object and
   per slot: plan membership, pinnedness and the owning increment id
   come from one packed frame-table word ([Frame_table.meta]), the
   id -> increment step is an array read, forwarding pointers are
   decoded from the raw header word (no [option]), and reference slots
   are walked with a direct [for] loop over the object's field range
   instead of a per-slot closure. Only per-collection setup (the plan
   walk, destination registration) allocates. *)
type dest = { inc : Increment.t; pos : Increment.pos }

let evacuate st plan c =
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  let frame_log = Memory.frame_log mem in

  (* Destination (open) increments, one per destination belt, created
     lazily and replaced when they hit their bound. [dests] also serves
     as the Cheney grey-set: every destination is scanned from the
     position at which it was registered. *)
  let dests : dest option Vec.t = Vec.create ~dummy:None () in
  let belt_dest : dest option array = Array.make (Array.length st.State.belts) None in
  let register_dest belt =
    let inc = State.open_inc st ~belt in
    let d = { inc; pos = Increment.scan_pos inc } in
    Vec.push dests (Some d);
    belt_dest.(belt) <- Some d;
    d
  in
  let dest_for belt =
    match belt_dest.(belt) with
    (* At its bound, the current frame may still have room: keep using
       it until a bump actually fails. *)
    | Some d when not d.inc.Increment.sealed -> d
    | _ -> register_dest belt
  in

  (* Bump-allocate [size] words in the destination for [belt], rolling
     over to a fresh increment when the current one is full. *)
  let rec dest_alloc belt size =
    let d = dest_for belt in
    let addr = Increment.bump_or_null d.inc ~size in
    if addr <> Addr.null then addr
    else if Increment.at_bound d.inc then begin
      Increment.seal d.inc;
      ignore (register_dest belt);
      dest_alloc belt size
    end
    else begin
      State.grant_frame st d.inc ~during_gc:true;
      dest_alloc belt size
    end
  in

  (* Pinned (large-object) increments in the plan are marked in place
     rather than copied; their objects join the grey set through
     [pinned_work] (scratch reused across collections), flagged via
     [gc_mark] so each is pushed once. *)
  let pinned_work = st.State.gc_pinned in
  Vec.clear pinned_work;

  (* Evacuate one object; returns its new address. [size] was decoded
     from the header word the caller already loaded. Unchecked accesses
     throughout the drain are sound by construction: sources sit in
     in-plan frames and destinations in just-granted frames, both live
     for the whole collection. *)
  let copy (src_inc : Increment.t) addr size =
    let belt = State.dest_belt st src_inc.Increment.belt in
    let new_addr = dest_alloc belt size in
    (* Objects never span frames (only pinned LOS increments do, and
       those are marked in place), so the whole object moves as one
       block. *)
    Memory.unsafe_blit mem ~src:addr ~dst:new_addr ~len:size;
    (* Forwarding pointer: odd status word, as decoded in [forward]. *)
    Memory.unsafe_set mem addr ((new_addr lsl 1) lor 1);
    c.copied_words <- c.copied_words + size;
    c.copied_objects <- c.copied_objects + 1;
    (match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_move ~src:addr ~dst:new_addr) hs);
    new_addr
  in

  let unowned addr =
    invalid_arg (Printf.sprintf "Collector: object %#x in unowned frame" addr)
  in
  let forward v =
    if not (Value.is_ref v) then v
    else begin
      let addr = Value.to_addr v in
      let m = Frame_table.meta ftab (addr lsr frame_log) in
      if not (Frame_table.meta_in_plan m) then v
      else begin
        (* Header word: odd = forwarding pointer, even = field count.
           The in-plan bit implies a live frame, so the load need not
           consult the liveness bitmap. *)
        let s = Memory.unsafe_get mem addr in
        if s land 1 = 1 then Value.of_addr (s lsr 1)
        else begin
          let id = Frame_table.meta_incr m in
          if id < 0 then unowned addr;
          match st.State.inc_by_id.(id) with
          | None -> unowned addr
          | Some inc when Frame_table.meta_pinned m ->
            if not inc.Increment.gc_mark then begin
              inc.Increment.gc_mark <- true;
              Vec.push pinned_work inc
            end;
            v
          | Some src_inc ->
            Value.of_addr (copy src_inc addr ((s lsr 1) + Object_model.header_words))
        end
      end
    end
  in

  (* Record that a surviving slot still holds an interesting pointer,
     in whichever bookkeeping the policy's barrier discipline uses. The
     predicate is the write barrier's, inlined over the already-flat
     stamp table. *)
  let use_cards = st.State.policy.State.barrier = State.Barrier_cards in
  let re_remember ~slot ~src ~tgt =
    Write_barrier.re_remember st ~use_cards ~slot ~src_frame:src ~tgt_frame:tgt
  in

  (* Scan one grey object: forward its outgoing references and re-apply
     the barrier predicate under the new frame stamps. Slots are the
     TIB word at [obj+1] and the fields from [obj+2]: one contiguous
     range, walked directly. The source frame is taken per slot, which
     also handles pinned objects spanning several (contiguous, equally
     stamped) frames. *)
  let scan_object obj =
    (* Grey objects are never forwarded, so the header word is the
       field count directly. *)
    let n = Memory.unsafe_get mem obj lsr 1 in
    for slot = obj + 1 to obj + 1 + n do
      let v = Memory.unsafe_get mem slot in
      if Value.is_ref v then begin
        c.scanned_slots <- c.scanned_slots + 1;
        let v' = forward v in
        if v' <> v then Memory.unsafe_set mem slot v';
        re_remember ~slot ~src:(slot lsr frame_log)
          ~tgt:(Value.to_addr v' lsr frame_log)
      end
    done
  in
  (* Dirty-frame (card) scanning is the same walk, counted against the
     remembered-slot statistic instead. *)
  let card_object obj =
    let scanned = c.scanned_slots in
    scan_object obj;
    c.remset_slots <- c.remset_slots + (c.scanned_slots - scanned);
    c.scanned_slots <- scanned
  in
  let remembered ~slot v =
    let v' = forward v in
    if v' <> v then begin
      Memory.set mem slot v';
      (* The slot now refers into a destination frame; re-apply the
         barrier predicate under the new stamps. *)
      re_remember ~slot ~src:(slot lsr frame_log)
        ~tgt:(Value.to_addr v' lsr frame_log)
    end
  in

  (* Cheney drain: scan every destination's copied objects and every
     marked pinned object; scanning may copy or mark more, so iterate
     until no grey work remains. *)
  let drain () =
    let progress = ref true in
    let pinned_scanned = ref 0 in
    while !progress do
      progress := false;
      (* [dests] may grow during the loop; index-based iteration picks
         up new destinations in the same pass. *)
      let i = ref 0 in
      while !i < Vec.length dests do
        let d = Option.get (Vec.get dests !i) in
        let obj = ref (Increment.scan_next d.inc mem d.pos) in
        while !obj <> Addr.null do
          progress := true;
          scan_object !obj;
          obj := Increment.scan_next d.inc mem d.pos
        done;
        incr i
      done;
      while !pinned_scanned < Vec.length pinned_work do
        progress := true;
        let inc = Vec.get pinned_work !pinned_scanned in
        incr pinned_scanned;
        scan_object (Increment.base_object inc mem)
      done
    done
  in

  (* Release the evacuated increments; marked pinned increments stay in
     place (that is the point of the large object space). *)
  let reclaim () =
    List.iter
      (fun (inc : Increment.t) ->
        settle st c inc ~keep:(inc.Increment.pinned && inc.Increment.gc_mark))
      plan.increments;
    Vec.clear pinned_work
  in
  {
    root = forward;
    remembered;
    card_object;
    drain_phase = Gc_stats.Phase_cheney;
    drain;
    reclaim_phase = Gc_stats.Phase_free;
    reclaim;
  }

(* ------------------------------------------------------------------ *)
(* Marking in place: bitmap mark-sweep and threaded (Jonkers)
   mark-compact. [compact] selects whether the reclaim rebuilds free
   lists in place or slides survivors to the front of their own
   increments.

   - The plan's non-pinned increments are *logically promoted first*:
     moved to their destination belts and restamped (every frame
     restamped to match) before any tracing. Tracing then runs
     entirely under the final stamps, so re-applying the write
     barrier's predicate while marking records exactly the right
     remembered slots — the property the copying drain gets from
     allocating survivors into new-stamped destination frames.
     Restamping only ever raises a target's stamp, so pre-existing
     remembered entries can become superfluous but never
     insufficient; and a pointer from outside the plan into a
     promoted increment needs no new entry, because downward closure
     puts any older source increment into every future plan that
     contains the now-younger-stamped target.

   - Marking: roots, then remembered slots / dirty cards, then an
     explicit mark-stack drain over the side bitmap (one bit per heap
     word, held by the memory substrate; only the plan's frames are
     cleared, and marks are only ever read behind an in-plan test).
     Pinned (LOS) increments in the plan are marked through the same
     bitmap on their base object.

   - Reclaim: the sweep below, or the threaded compaction (Jonkers'
     scheme, as in motoko-rts). Neither needs a copy reserve. *)
let mark_in_place st plan c ~compact =
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  let frame_log = Memory.frame_log mem in
  let frame_words = Memory.frame_words mem in
  let hook_object_dead ~addr ~words =
    match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_object_dead ~addr ~words) hs
  in

  (* Logical promotion: survivors keep their frames, so promotion is a
     belt/stamp relabelling instead of a copy. Each increment takes a
     fresh stamp, so pushing it to the back of its destination belt
     preserves the belts' stamp-FIFO ordering whatever the plan order.
     Pinned increments keep their place, exactly as under copying.
     (The increment also keeps its original belt's [bound_frames] —
     the bound travels with the increment, not the belt.) *)
  List.iter
    (fun (inc : Increment.t) ->
      if not inc.Increment.pinned then begin
        let dest = State.dest_belt st inc.Increment.belt in
        Belt.remove st.State.belts.(inc.Increment.belt) inc;
        inc.Increment.belt <- dest;
        inc.Increment.stamp <- State.stamp_for_belt st dest;
        Belt.push_back st.State.belts.(dest) inc;
        Vec.iter
          (fun f -> Frame_table.restamp ftab ~frame:f ~stamp:inc.Increment.stamp)
          inc.Increment.frames
      end)
    plan.increments;

  (* Side mark bitmap over the plan's frames, plus the explicit mark
     stack. Marks outside the plan may be stale from an earlier
     collection; they are never read. *)
  Memory.ensure_marks mem;
  List.iter
    (fun (inc : Increment.t) ->
      Vec.iter (fun f -> Memory.clear_marks_frame mem f) inc.Increment.frames)
    plan.increments;
  let stack = st.State.gc_mark_stack in
  Vec.clear stack;

  (* Grey an object: mark bit, statistics, stack push. Pinned objects
     are marked through the same bitmap on their base address, so
     retention at reclaim is one bitmap test either way. *)
  let trace v =
    if Value.is_ref v then begin
      let addr = Value.to_addr v in
      if
        Frame_table.meta_in_plan (Frame_table.meta ftab (addr lsr frame_log))
        && not (Memory.marked mem addr)
      then begin
        Memory.set_mark mem addr;
        c.marked_objects <- c.marked_objects + 1;
        c.marked_words <-
          c.marked_words + (Memory.unsafe_get mem addr lsr 1)
          + Object_model.header_words;
        Vec.push stack addr
      end
    end
  in

  let use_cards = st.State.policy.State.barrier = State.Barrier_cards in
  let re_remember ~slot ~src ~tgt =
    Write_barrier.re_remember st ~use_cards ~slot ~src_frame:src ~tgt_frame:tgt
  in

  (* External referrer slots, collected during the remset/card phases.
     The compactor must come back to them after the slide — both to
     thread them (so they learn the new addresses) and to re-record
     them (their old remset entries are keyed by target frame, and a
     vacated target frame drops its entries). Deduplicated: threading
     one slot twice would tie its chain into a cycle. The sweep needs
     none of this and leaves the vector empty. *)
  let ext_slots : int Vec.t = Vec.create ~dummy:0 () in
  let ext_seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let note_ext slot =
    if compact && not (Hashtbl.mem ext_seen slot) then begin
      Hashtbl.replace ext_seen slot ();
      Vec.push ext_slots slot
    end
  in

  (* Dirty-frame scanning: cards were cleared by the driver and are
     re-marked for slots that still hold interesting pointers —
     immediately for slots whose target stays put, after the slide for
     slots into compacting increments. *)
  let card_object obj =
    let n = Memory.unsafe_get mem obj lsr 1 in
    for slot = obj + 1 to obj + 1 + n do
      let v = Memory.unsafe_get mem slot in
      if Value.is_ref v then begin
        c.remset_slots <- c.remset_slots + 1;
        trace v;
        let tf = Value.to_addr v lsr frame_log in
        let tm = Frame_table.meta ftab tf in
        if compact && Frame_table.meta_in_plan tm && not (Frame_table.meta_pinned tm)
        then note_ext slot
        else re_remember ~slot ~src:(slot lsr frame_log) ~tgt:tf
      end
    done
  in

  (* Mark drain. Under the sweep, surviving slots re-apply the barrier
     predicate here, under the (final) promoted stamps — the in-place
     analogue of the copying scan's re-recording. The compactor defers
     it to after the slide: both the slots and their targets move. *)
  let drain () =
    while not (Vec.is_empty stack) do
      let obj = Vec.pop stack in
      let n = Memory.unsafe_get mem obj lsr 1 in
      for slot = obj + 1 to obj + 1 + n do
        let v = Memory.unsafe_get mem slot in
        if Value.is_ref v then begin
          c.scanned_slots <- c.scanned_slots + 1;
          trace v;
          if not compact then
            re_remember ~slot ~src:(slot lsr frame_log)
              ~tgt:(Value.to_addr v lsr frame_log)
        end
      done
    done
  in

  (* Free one frame of a surviving increment (wholly dead, or vacated
     by the slide). *)
  let free_frame_now inc frame =
    State.free_frame st inc frame;
    c.freed_frames <- c.freed_frames + 1
  in
  (* Pinned increments are retained in place when their object was
     reached, released otherwise; the compactor additionally re-records
     the retained object's slots once every target has its final
     address ([rescan]). *)
  let finish_pinned ~rescan (inc : Increment.t) =
    let obj = Increment.base_object inc mem in
    let keep = Memory.marked mem obj in
    if keep && rescan then begin
      let n = Memory.unsafe_get mem obj lsr 1 in
      for slot = obj + 1 to obj + 1 + n do
        let v = Memory.unsafe_get mem slot in
        if Value.is_ref v then
          re_remember ~slot ~src:(slot lsr frame_log) ~tgt:(Value.to_addr v lsr frame_log)
      done
    end;
    settle st c inc ~keep
  in
  (* Reopen a rebuilt increment over its surviving frames: [used.(i)]
     words in use in frame [i]; the last frame reopens under the bump
     cursor, the others keep their recorded extents. *)
  let reopen (inc : Increment.t) ~used ~objects =
    let m = Vec.length inc.Increment.frames in
    Vec.clear inc.Increment.frame_used;
    let words = ref 0 in
    for i = 0 to m - 1 do
      words := !words + Vec.get used i;
      if i < m - 1 then Vec.push inc.Increment.frame_used (Vec.get used i)
    done;
    let last_base = Memory.frame_base mem (Vec.get inc.Increment.frames (m - 1)) in
    inc.Increment.cursor <- last_base + Vec.get used (m - 1);
    inc.Increment.limit <- last_base + frame_words;
    inc.Increment.words_used <- !words;
    inc.Increment.objects <- objects;
    inc.Increment.sealed <- false;
    settle st c inc ~keep:true
  in

  (* Sweep: rebuild each increment in place. Adjacent dead objects
     coalesce into one filler per run — an even header and odd
     (immediate) payload words, so object walks parse it and slot walks
     skip it — pushed onto the increment's free list. Frames with no
     survivor are returned individually, and the increment is unsealed
     so the mutator can bump its tail and refill its holes. *)
  let sweep (inc : Increment.t) =
    let nframes = Increment.frame_count inc in
    (* Survival per frame, decided before any rebuilding. *)
    let keep = Array.make (max nframes 1) false in
    let any_live = ref false in
    for fi = 0 to nframes - 1 do
      let base = Memory.frame_base mem (Vec.get inc.Increment.frames fi) in
      let extent = base + Increment.used_of_frame inc mem fi in
      let a = ref base in
      while !a < extent do
        if Memory.marked mem !a then begin
          keep.(fi) <- true;
          any_live := true
        end;
        a := !a + (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words
      done
    done;
    if not !any_live then settle st c inc ~keep:false
    else begin
      Increment.clear_free_list inc;
      let kept_frames = Vec.create ~dummy:0 () in
      let kept_used = Vec.create ~dummy:0 () in
      let live = ref 0 in
      let fillers = ref 0 in
      for fi = 0 to nframes - 1 do
        let frame = Vec.get inc.Increment.frames fi in
        if not keep.(fi) then free_frame_now inc frame
        else begin
          let used = Increment.used_of_frame inc mem fi in
          let base = Memory.frame_base mem frame in
          let extent = base + used in
          let run_start = ref Addr.null in
          let flush upto =
            if !run_start <> Addr.null then begin
              let k = upto - !run_start in
              Memory.unsafe_set mem !run_start ((k - Object_model.header_words) lsl 1);
              Memory.fill mem ~dst:(!run_start + 1) ~len:(k - 1) 1;
              Increment.push_free inc ~addr:!run_start ~words:k;
              incr fillers;
              run_start := Addr.null
            end
          in
          let a = ref base in
          while !a < extent do
            let size = (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words in
            if Memory.marked mem !a then begin
              incr live;
              flush !a
            end
            else begin
              if !run_start = Addr.null then run_start := !a;
              c.swept_words <- c.swept_words + size;
              (* Dead in a surviving frame: reported here. Dead objects
                 in a freed frame die with the frame ([on_frame_free]),
                 never both. *)
              hook_object_dead ~addr:!a ~words:size
            end;
            a := !a + size
          done;
          flush extent;
          Vec.push kept_frames frame;
          Vec.push kept_used used
        end
      done;
      (* The last kept frame's tail words are still zeroed — bump
         allocation never reached them. *)
      Vec.clear inc.Increment.frames;
      Vec.iter (Vec.push inc.Increment.frames) kept_frames;
      reopen inc ~used:kept_used ~objects:(!live + !fillers)
    end
  in

  (* Threaded compaction (Jonkers): every reference to a moving object
     is threaded into a chain hanging off the target's header; two
     passes over the compacting increments in one fixed total order
     (plan order, stream order within an increment) first compute
     destination addresses and unthread the already recorded
     referrers, then slide the objects and unthread the rest. Both
     passes recompute the same destination cursor — the survivors
     packed into the increment's own frames in order, advancing at a
     frame seam exactly when the object would not fit the remainder.
     The original packing obeyed the same rule, so within any frame the
     destination never overtakes the source and [Memory.blit]'s forward
     copy is safe; across frames, source and destination never
     alias. *)
  let compact_all () =
    (* Fields of retained pinned objects point into compacting
       increments by address; collect them with the external slots
       (deduplicated) so they are threaded and re-recorded too. *)
    List.iter
      (fun (inc : Increment.t) ->
        if inc.Increment.pinned && Memory.marked mem (Increment.base_object inc mem)
        then begin
          let obj = Increment.base_object inc mem in
          let n = Memory.unsafe_get mem obj lsr 1 in
          for slot = obj + 1 to obj + 1 + n do
            if Value.is_ref (Memory.unsafe_get mem slot) then note_ext slot
          done
        end)
      plan.increments;
    (* Thread the external slots. Every slot's target was traced with
       this same value, so a slot pointing at a moving (in-plan,
       non-pinned) object always points at a live one. This must happen
       only now: the drain reads these very slots, and a threaded slot
       holds a chain link, not a value. *)
    Vec.iter
      (fun slot ->
        let v = Memory.get mem slot in
        if Value.is_ref v then begin
          let tgt = Value.to_addr v in
          let tm = Frame_table.meta ftab (tgt lsr frame_log) in
          if Frame_table.meta_in_plan tm && not (Frame_table.meta_pinned tm) then begin
            Memory.set mem slot (Memory.unsafe_get mem tgt);
            Memory.unsafe_set mem tgt ((slot lsl 1) lor 1)
          end
        end)
      ext_slots;

    let compacting =
      List.filter (fun (i : Increment.t) -> not i.Increment.pinned) plan.increments
    in
    (* Chain-walk to the terminal (even) header word without
       unthreading: an object's size is needed to place it before its
       referrers can learn the new address. *)
    let threaded_header obj =
      let w = ref (Memory.unsafe_get mem obj) in
      while !w land 1 = 1 do
        w := Memory.unsafe_get mem (!w lsr 1)
      done;
      !w
    in
    (* Relocation table for the root slots, which live outside the
       simulated heap and cannot be threaded — the one deviation from
       pure threading. Only movers are recorded. *)
    let old_new : (int, int) Hashtbl.t = Hashtbl.create 256 in
    (* Destination frame count per increment, decided by pass one. *)
    let live_frames : (int, int) Hashtbl.t = Hashtbl.create 16 in

    (* Pass one. *)
    List.iter
      (fun (inc : Increment.t) ->
        let nframes = Increment.frame_count inc in
        let dfi = ref 0 in
        let daddr = ref Addr.null in
        let dlimit = ref Addr.null in
        if nframes > 0 then begin
          daddr := Memory.frame_base mem (Vec.get inc.Increment.frames 0);
          dlimit := !daddr + frame_words
        end;
        let any = ref false in
        for fi = 0 to nframes - 1 do
          let base = Memory.frame_base mem (Vec.get inc.Increment.frames fi) in
          let extent = base + Increment.used_of_frame inc mem fi in
          let a = ref base in
          while !a < extent do
            if Memory.marked mem !a then begin
              any := true;
              let size = (threaded_header !a lsr 1) + Object_model.header_words in
              if !daddr + size > !dlimit then begin
                incr dfi;
                daddr := Memory.frame_base mem (Vec.get inc.Increment.frames !dfi);
                dlimit := !daddr + frame_words
              end;
              let dst = !daddr in
              daddr := dst + size;
              if dst <> !a then Hashtbl.replace old_new !a dst;
              (* Unthread: referrers recorded so far (external slots,
                 and fields of objects earlier in the order) learn the
                 new address; the original header comes back. *)
              let w = ref (Memory.unsafe_get mem !a) in
              while !w land 1 = 1 do
                let s = !w lsr 1 in
                w := Memory.unsafe_get mem s;
                Memory.unsafe_set mem s (Value.of_addr dst)
              done;
              Memory.unsafe_set mem !a !w;
              let n = !w lsr 1 in
              (* Thread this object's own references to movers (a
                 self-reference threads into this object's own chain
                 and resolves in pass two, before the slide). *)
              for slot = !a + 1 to !a + 1 + n do
                let v = Memory.unsafe_get mem slot in
                if Value.is_ref v then begin
                  let tgt = Value.to_addr v in
                  let tm = Frame_table.meta ftab (tgt lsr frame_log) in
                  if Frame_table.meta_in_plan tm && not (Frame_table.meta_pinned tm)
                  then begin
                    Memory.unsafe_set mem slot (Memory.unsafe_get mem tgt);
                    Memory.unsafe_set mem tgt ((slot lsl 1) lor 1)
                  end
                end
              done;
              a := !a + size
            end
            else a := !a + (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words
          done
        done;
        Hashtbl.replace live_frames inc.Increment.id (if !any then !dfi + 1 else 0))
      compacting;

    (* Pass two: the same walk and the same destination computation;
       unthread the remaining referrers (slots of objects later in the
       order — not yet moved — or of this object itself), restore the
       header, slide, and rebuild the increment over its survivor
       prefix. Finishing each increment here is sound: all of its slots
       already hold final values (forward references were resolved by
       pass one, which ran to completion everywhere). *)
    List.iter
      (fun (inc : Increment.t) ->
        let m = Hashtbl.find live_frames inc.Increment.id in
        if m = 0 then settle st c inc ~keep:false
        else begin
          let nframes = Increment.frame_count inc in
          let dfi = ref 0 in
          let daddr = ref (Memory.frame_base mem (Vec.get inc.Increment.frames 0)) in
          let dlimit = ref (!daddr + frame_words) in
          let extents = Vec.create ~dummy:0 () in
          let live = ref 0 in
          for fi = 0 to nframes - 1 do
            let base = Memory.frame_base mem (Vec.get inc.Increment.frames fi) in
            let extent = base + Increment.used_of_frame inc mem fi in
            let a = ref base in
            while !a < extent do
              if Memory.marked mem !a then begin
                let size = (threaded_header !a lsr 1) + Object_model.header_words in
                if !daddr + size > !dlimit then begin
                  Vec.push extents
                    (!daddr - Memory.frame_base mem (Vec.get inc.Increment.frames !dfi));
                  incr dfi;
                  daddr := Memory.frame_base mem (Vec.get inc.Increment.frames !dfi);
                  dlimit := !daddr + frame_words
                end;
                let dst = !daddr in
                daddr := dst + size;
                let w = ref (Memory.unsafe_get mem !a) in
                while !w land 1 = 1 do
                  let s = !w lsr 1 in
                  w := Memory.unsafe_get mem s;
                  Memory.unsafe_set mem s (Value.of_addr dst)
                done;
                Memory.unsafe_set mem !a !w;
                incr live;
                if dst <> !a then begin
                  Memory.blit mem ~src:!a ~dst ~len:size;
                  c.moved_words <- c.moved_words + size;
                  match st.State.hooks with
                  | [] -> ()
                  | hs -> List.iter (fun h -> h.State.on_move ~src:!a ~dst) hs
                end;
                a := !a + size
              end
              else begin
                let size = (Memory.unsafe_get mem !a lsr 1) + Object_model.header_words in
                if fi < m then begin
                  (* Dying inside a surviving frame: reported here. A
                     dead object in a vacated frame dies with the frame
                     ([on_frame_free]), never both. *)
                  c.swept_words <- c.swept_words + size;
                  hook_object_dead ~addr:!a ~words:size
                end;
                a := !a + size
              end
            done
          done;
          Vec.push extents
            (!daddr - Memory.frame_base mem (Vec.get inc.Increment.frames !dfi));
          (* Free the vacated tail, rebuild the survivor prefix. *)
          for fi = nframes - 1 downto m do
            free_frame_now inc (Vec.get inc.Increment.frames fi)
          done;
          Vec.truncate inc.Increment.frames m;
          Increment.clear_free_list inc;
          reopen inc ~used:extents ~objects:!live;
          (* The slide leaves stale object images under the reopened
             bump tail; allocation assumes zeroed words. *)
          if inc.Increment.limit > inc.Increment.cursor then
            Memory.fill mem ~dst:inc.Increment.cursor
              ~len:(inc.Increment.limit - inc.Increment.cursor)
              0;
          (* Re-apply the barrier predicate over the compacted stream
             (the in-place analogue of the copying scan's
             re-recording): every slot here is final. *)
          for i = 0 to m - 1 do
            let base = Memory.frame_base mem (Vec.get inc.Increment.frames i) in
            let extent = base + Vec.get extents i in
            let a = ref base in
            while !a < extent do
              let n = Memory.unsafe_get mem !a lsr 1 in
              for slot = !a + 1 to !a + 1 + n do
                let v = Memory.unsafe_get mem slot in
                if Value.is_ref v then
                  re_remember ~slot ~src:(slot lsr frame_log)
                    ~tgt:(Value.to_addr v lsr frame_log)
              done;
              a := !a + n + Object_model.header_words
            done
          done
        end)
      compacting;

    (* Retained pinned objects: clear plan state and re-record their
       (now final) slots. *)
    List.iter
      (fun (inc : Increment.t) ->
        if inc.Increment.pinned then finish_pinned ~rescan:true inc)
      plan.increments;

    (* Root slots, from the relocation table. *)
    Roots.iter_update st.State.roots (fun v ->
        if Value.is_ref v then (
          match Hashtbl.find_opt old_new (Value.to_addr v) with
          | Some dst -> Value.of_addr dst
          | None -> v)
        else v);

    (* External referrer slots: re-record under the final target
       frames. An entry keyed by a vacated target frame was dropped
       with that frame; this re-insertion is what preserves it. *)
    Vec.iter
      (fun slot ->
        let v = Memory.get mem slot in
        if Value.is_ref v then
          re_remember ~slot ~src:(slot lsr frame_log)
            ~tgt:(Value.to_addr v lsr frame_log))
      ext_slots
  in
  {
    (* Nothing moves during marking, so the root pass only traces; the
       compactor rewrites root slots after the slide. *)
    root = (fun v -> trace v; v);
    remembered = (fun ~slot v -> trace v; note_ext slot);
    card_object;
    drain_phase = Gc_stats.Phase_mark;
    drain;
    reclaim_phase = (if compact then Gc_stats.Phase_compact else Gc_stats.Phase_sweep);
    reclaim =
      (if compact then compact_all
       else fun () ->
         List.iter
           (fun (inc : Increment.t) ->
             if inc.Increment.pinned then finish_pinned ~rescan:false inc
             else sweep inc)
           plan.increments);
  }

(* ------------------------------------------------------------------ *)
(* The collection driver: one skeleton for every strategy, the kernel
   chosen by the installed strategy's kind. *)

let abandoned st =
  if not st.State.in_gc then None
  else
    Some
      (Printf.sprintf
         "heap abandoned: collection %d raised part-way and never finished"
         (Gc_stats.gcs st.State.stats + 1))

let collect st plan =
  (* A collection that raised part-way (a copy reserve that proved
     insufficient, or a raising hook) leaves forwarded objects and in-plan bits behind;
     collecting over that heap again would only compound the damage. *)
  Option.iter (fun m -> raise (State.Out_of_memory m)) (abandoned st);
  let mem = st.State.mem in
  let ftab = st.State.ftab in
  st.State.in_gc <- true;
  (match st.State.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h -> h.State.on_collect_start ~reason:plan.reason ~emergency:plan.emergency)
      hs);
  (* Phase spans for the flight recorder: free when no hooks are
     installed (one list match per phase boundary per collection). *)
  let phase p enter =
    match st.State.hooks with
    | [] -> ()
    | hs -> List.iter (fun h -> h.State.on_gc_phase ~phase:p ~enter) hs
  in
  let c =
    {
      copied_words = 0;
      copied_objects = 0;
      scanned_slots = 0;
      remset_slots = 0;
      marked_objects = 0;
      marked_words = 0;
      swept_words = 0;
      moved_words = 0;
      freed_frames = 0;
    }
  in
  (* Plan totals up front: the in-place kernels rewrite the plan
     increments' own occupancy. *)
  let pf = plan_frames plan in
  let pw = plan_words plan in

  (* Plan membership: an in-plan bit on each member frame's packed
     metadata word, plus a flag on the increment itself. *)
  List.iter
    (fun (inc : Increment.t) ->
      inc.Increment.in_plan <- true;
      Increment.seal inc;
      Vec.iter (fun f -> Frame_table.set_in_plan ftab ~frame:f true) inc.Increment.frames)
    plan.increments;
  let k =
    match st.State.strategy.State.strategy_kind with
    | State.Strategy_copying -> evacuate st plan c
    | State.Strategy_marksweep -> mark_in_place st plan c ~compact:false
    | State.Strategy_markcompact -> mark_in_place st plan c ~compact:true
  in

  (* Roots: every global and stack slot, each visited once. *)
  let roots_scanned =
    Roots.global_count st.State.roots + Roots.depth st.State.roots
  in
  phase Gc_stats.Phase_roots true;
  Roots.iter_update st.State.roots k.root;
  phase Gc_stats.Phase_roots false;

  (match st.State.policy.State.barrier with
  | State.Barrier_remsets _ ->
    phase Gc_stats.Phase_remset true;
    (* Remembered slots targeting the plan from outside it. Snapshot
       first (into scratch reused across collections): tracing inserts
       new remset entries and the table must not be mutated
       mid-iteration. *)
    let pending_slots = st.State.gc_slots in
    Vec.clear pending_slots;
    Remset.iter_into st.State.remsets
      ~in_plan:(fun f -> Frame_table.in_plan ftab f)
      (fun ~slot -> Vec.push pending_slots slot);
    for i = 0 to Vec.length pending_slots - 1 do
      let slot = Vec.get pending_slots i in
      c.remset_slots <- c.remset_slots + 1;
      let v = Memory.get mem slot in
      if Value.is_ref v then k.remembered ~slot v
    done;
    Vec.clear pending_slots;
    phase Gc_stats.Phase_remset false
  | State.Barrier_cards ->
    phase Gc_stats.Phase_cards true;
    (* Card scanning: every dirty frame outside the plan may hold
       pointers into it. Scan the owning increments object by object —
       the scan-cost side of the cards-vs-remsets trade-off (paper S5).
       Cards are cleared first; the kernel re-marks those whose slots
       still hold interesting pointers. *)
    let incs_to_scan = Hashtbl.create 16 in
    Card_table.iter_dirty st.State.cards (fun frame ->
        if not (Frame_table.in_plan ftab frame) then begin
          Card_table.clear st.State.cards ~frame;
          match State.inc_of_frame st frame with
          | Some inc -> Hashtbl.replace incs_to_scan inc.Increment.id inc
          | None -> ()
        end);
    Hashtbl.iter
      (fun _ (inc : Increment.t) -> Increment.iter_objects inc mem k.card_object)
      incs_to_scan;
    phase Gc_stats.Phase_cards false);

  phase k.drain_phase true;
  k.drain ();
  phase k.drain_phase false;
  phase k.reclaim_phase true;
  k.reclaim ();
  phase k.reclaim_phase false;

  st.State.in_gc <- false;
  if plan.full_heap then st.State.live_est_frames <- st.State.frames_used;
  let record : Gc_stats.collection =
    {
      Gc_stats.n = Gc_stats.gcs st.State.stats;
      reason = plan.reason;
      emergency = plan.emergency;
      clock_words = st.State.stats.Gc_stats.words_allocated;
      plan_incs = List.length plan.increments;
      plan_frames = pf;
      plan_words = pw;
      full_heap = plan.full_heap;
      copied_words = c.copied_words;
      copied_objects = c.copied_objects;
      scanned_slots = c.scanned_slots;
      remset_slots = c.remset_slots;
      roots_scanned;
      marked_objects = c.marked_objects;
      marked_words = c.marked_words;
      swept_words = c.swept_words;
      moved_words = c.moved_words;
      freed_frames = c.freed_frames;
      heap_frames_after = st.State.frames_used;
      reserve_frames = Copy_reserve.frames st;
    }
  in
  Gc_stats.record_collection st.State.stats record;
  (match st.State.hooks with
  | [] -> ()
  | hs ->
    List.iter
      (fun h ->
        (* Reserve sampled once per collection, after the plan's frames
           are back: the recorder's reserve-pressure time series. *)
        h.State.on_reserve ~frames:record.Gc_stats.reserve_frames;
        h.State.on_collect_end ~full_heap:plan.full_heap)
      hs);
  record

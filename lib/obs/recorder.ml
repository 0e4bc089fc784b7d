module State = Beltway.State
module Gc_stats = Beltway.Gc_stats
module Vec = Beltway_util.Vec

type event =
  | Collection of {
      n : int;
      reason : Gc_stats.reason;
      emergency : bool;
      full_heap : bool;
      start_us : float;
      dur_us : float;
      clock_words : int;
      copied_words : int;
      freed_frames : int;
      frames_after : int;
      reserve_frames : int;
    }
  | Phase of {
      n : int;
      phase : Gc_stats.gc_phase;
      start_us : float;
      dur_us : float;
    }
  | Frame_grant of { t_us : float; frame : int; belt : int; during_gc : bool }
  | Frame_free of { t_us : float; frame : int; belt : int }
  | Belt_advance of { t_us : float; belt : int; inc_id : int; stamp : int }
  | Reserve of { t_us : float; frames : int }
  | Trigger_fired of { t_us : float; reason : Gc_stats.reason }

let default_capacity = 1 lsl 16

type t = {
  gc : Beltway.Gc.t;
  ring : event Ring.t;
  metrics : Metrics.t;
  t0 : float; (* wall clock at attach, seconds *)
  pause_starts_us : float Vec.t;
  pause_durs_us : float Vec.t;
  mutable open_collection : float; (* start_us; < 0 when none *)
  mutable open_phase : Gc_stats.gc_phase option;
  mutable open_phase_start : float;
  mutable last_pause_end_us : float; (* < 0 before the first pause *)
  mutable hooks : State.hooks option;
}

let now_us t = (Unix.gettimeofday () -. t.t0) *. 1e6

(* Histogram bucket widths, chosen for the magnitudes this simulation
   produces (microsecond-scale pauses, kilobyte-scale copies). *)
let pause_ns_width = 1_000.0
let interval_ns_width = 100_000.0
let copied_bytes_width = 4_096.0
let remset_slots_width = 16.0
let frames_width = 1.0

let record_collection_end t ~full_heap =
  let st = Beltway.Gc.state t.gc in
  let stats = st.State.stats in
  let n = Gc_stats.gcs stats in
  if n > 0 && t.open_collection >= 0.0 then begin
    let c = Vec.get stats.Gc_stats.collections (n - 1) in
    let start_us = t.open_collection in
    let end_us = now_us t in
    let dur_us = Float.max 0.0 (end_us -. start_us) in
    t.open_collection <- -1.0;
    Ring.push t.ring
      (Collection
         {
           n = c.Gc_stats.n;
           reason = c.Gc_stats.reason;
           emergency = c.Gc_stats.emergency;
           full_heap;
           start_us;
           dur_us;
           clock_words = c.Gc_stats.clock_words;
           copied_words = c.Gc_stats.copied_words;
           freed_frames = c.Gc_stats.freed_frames;
           frames_after = c.Gc_stats.heap_frames_after;
           reserve_frames = c.Gc_stats.reserve_frames;
         });
    Vec.push t.pause_starts_us start_us;
    Vec.push t.pause_durs_us dur_us;
    let m = t.metrics in
    Metrics.incr m "gc.collections";
    if full_heap then Metrics.incr m "gc.full_heap";
    if c.Gc_stats.emergency then Metrics.incr m "gc.emergency";
    Metrics.observe m ~bucket_width:pause_ns_width "gc.pause_ns" (dur_us *. 1e3);
    if t.last_pause_end_us >= 0.0 then
      Metrics.observe m ~bucket_width:interval_ns_width "gc.pause_interval_ns"
        ((start_us -. t.last_pause_end_us) *. 1e3);
    t.last_pause_end_us <- end_us;
    Metrics.observe m ~bucket_width:copied_bytes_width "gc.copied_bytes"
      (float_of_int (c.Gc_stats.copied_words * Addr.bytes_per_word));
    (* In-place strategy volumes. Guarded on nonzero so a copying run
       never creates these tracks and its metric dump stays
       byte-identical to the pre-strategy recorder. *)
    if c.Gc_stats.marked_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.marked_bytes"
        (float_of_int (c.Gc_stats.marked_words * Addr.bytes_per_word));
    if c.Gc_stats.swept_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.swept_bytes"
        (float_of_int (c.Gc_stats.swept_words * Addr.bytes_per_word));
    if c.Gc_stats.moved_words > 0 then
      Metrics.observe m ~bucket_width:copied_bytes_width "gc.moved_bytes"
        (float_of_int (c.Gc_stats.moved_words * Addr.bytes_per_word));
    Metrics.observe m ~bucket_width:remset_slots_width "gc.remset_slots"
      (float_of_int c.Gc_stats.remset_slots);
    Metrics.set_gauge m "heap.frames_used" (float_of_int st.State.frames_used);
    Metrics.set_gauge m "remset.entries"
      (float_of_int (Beltway.Remset.total_entries st.State.remsets));
    (* Occupancy telemetry: per-belt (named tracks) and per-increment
       (one pooled distribution). *)
    Array.iter
      (fun belt ->
        let bi = Beltway.Belt.index belt in
        let occ = float_of_int (Beltway.Belt.occupancy_frames belt) in
        Metrics.set_gauge m (Printf.sprintf "belt.%d.frames" bi) occ;
        Metrics.observe m ~bucket_width:frames_width
          (Printf.sprintf "belt.%d.occupancy_frames" bi)
          occ)
      st.State.belts;
    List.iter
      (fun (inc : Beltway.Increment.t) ->
        Metrics.observe m ~bucket_width:frames_width "increment.occupancy_frames"
          (float_of_int (Beltway.Increment.occupancy_frames inc)))
      (State.live_increments st)
  end

let attach ?(capacity = default_capacity) gc =
  let t =
    {
      gc;
      ring = Ring.create ~capacity ~dummy:(Reserve { t_us = 0.0; frames = 0 });
      metrics = Metrics.create ();
      t0 = Unix.gettimeofday ();
      pause_starts_us = Vec.create ~dummy:0.0 ();
      pause_durs_us = Vec.create ~dummy:0.0 ();
      open_collection = -1.0;
      open_phase = None;
      open_phase_start = 0.0;
      last_pause_end_us = -1.0;
      hooks = None;
    }
  in
  let st = Beltway.Gc.state gc in
  (* Phases fire inside a collection, before its record is pushed, so
     the in-flight collection's ordinal is one past the completed
     count. *)
  let gc_ordinal () = Gc_stats.gcs st.State.stats + 1 in
  let hooks =
    {
      State.noop_hooks with
      State.on_collect_start =
        (fun ~reason:_ ~emergency:_ -> t.open_collection <- now_us t);
      on_collect_end = (fun ~full_heap -> record_collection_end t ~full_heap);
      on_gc_phase =
        (fun ~phase ~enter ->
          if enter then begin
            t.open_phase <- Some phase;
            t.open_phase_start <- now_us t
          end
          else begin
            (match t.open_phase with
            | Some p when p = phase ->
              Ring.push t.ring
                (Phase
                   {
                     n = gc_ordinal ();
                     phase;
                     start_us = t.open_phase_start;
                     dur_us = Float.max 0.0 (now_us t -. t.open_phase_start);
                   })
            | _ -> ());
            t.open_phase <- None
          end);
      on_frame_grant =
        (fun ~frame ~belt ~during_gc ->
          Metrics.incr t.metrics "frames.granted";
          Ring.push t.ring (Frame_grant { t_us = now_us t; frame; belt; during_gc }));
      on_frame_free =
        (fun ~frame ~belt ->
          Metrics.incr t.metrics "frames.freed";
          Ring.push t.ring (Frame_free { t_us = now_us t; frame; belt }));
      on_belt_advance =
        (fun ~belt ~inc_id ~stamp ->
          Metrics.incr t.metrics "belt.advances";
          Ring.push t.ring (Belt_advance { t_us = now_us t; belt; inc_id; stamp }));
      on_reserve =
        (fun ~frames ->
          Metrics.set_gauge t.metrics "reserve.frames" (float_of_int frames);
          Ring.push t.ring (Reserve { t_us = now_us t; frames }));
      on_trigger =
        (fun ~reason ->
          Metrics.incr t.metrics ("trigger." ^ Gc_stats.reason_to_string reason);
          Ring.push t.ring (Trigger_fired { t_us = now_us t; reason }));
      on_barrier_slow =
        (fun ~entries ->
          Metrics.incr t.metrics "barrier.slow";
          Metrics.set_gauge t.metrics "remset.entries" (float_of_int entries));
    }
  in
  State.add_hooks st hooks;
  t.hooks <- Some hooks;
  t

let detach t =
  match t.hooks with
  | None -> ()
  | Some h ->
    let st = Beltway.Gc.state t.gc in
    State.remove_hooks st h;
    t.hooks <- None

let gc t = t.gc
let metrics t = t.metrics
let events t = Ring.to_list t.ring
let iter_events t f = Ring.iter t.ring f
let event_count t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let collections t = Vec.length t.pause_durs_us
let pause_starts_us t = Vec.to_array t.pause_starts_us
let pause_durs_us t = Vec.to_array t.pause_durs_us

let env_file () =
  match Sys.getenv_opt "BELTWAY_TRACE" with
  | Some "" | None -> None
  | Some f -> Some f

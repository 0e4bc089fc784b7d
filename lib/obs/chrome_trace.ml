module Json = Beltway_util.Json
module Gc_stats = Beltway.Gc_stats
module State = Beltway.State

(* Track layout: tid 0 is the mutator (collection pauses and their
   phase spans preempt the mutator, so they render there), and tid 1+b
   is belt b (frame grants/frees and belt advances, so per-belt heap
   churn is visible as its own track). *)
let mutator_tid = 0
let belt_tid b = b + 1

let num i = Json.Num (float_of_int i)

let common ~pid ~tid ~name ~cat ~ph ~ts rest =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Num ts);
       ("pid", num pid);
       ("tid", num tid);
     ]
    @ rest)

let instant ~pid ~tid ~name ~cat ~ts args =
  common ~pid ~tid ~name ~cat ~ph:"i" ~ts
    [ ("s", Json.Str "t"); ("args", Json.Obj args) ]

let span ~pid ~tid ~name ~cat ~ts ~dur args =
  common ~pid ~tid ~name ~cat ~ph:"X" ~ts
    [ ("dur", Json.Num dur); ("args", Json.Obj args) ]

let event_json ~pid (e : Recorder.event) =
  match e with
  | Recorder.Collection c ->
    let label =
      Gc_stats.reason_to_string c.reason
      ^ if c.emergency then "-emergency" else ""
    in
    span ~pid ~tid:mutator_tid
      ~name:(Printf.sprintf "GC %d (%s)" c.n label)
      ~cat:"gc" ~ts:c.start_us ~dur:c.dur_us
      [
        ("reason", Json.Str (Gc_stats.reason_to_string c.reason));
        ("emergency", Json.Bool c.emergency);
        ("full_heap", Json.Bool c.full_heap);
        ("n", num c.n);
        ("clock_words", num c.clock_words);
        ("copied_words", num c.copied_words);
        ("freed_frames", num c.freed_frames);
        ("frames_after", num c.frames_after);
        ("reserve_frames", num c.reserve_frames);
      ]
  | Recorder.Phase p ->
    span ~pid ~tid:mutator_tid
      ~name:(Gc_stats.phase_to_string p.phase)
      ~cat:"gc.phase" ~ts:p.start_us ~dur:p.dur_us
      [ ("gc", num p.n) ]
  | Recorder.Frame_grant f ->
    instant ~pid ~tid:(belt_tid f.belt) ~name:"frame grant" ~cat:"frame"
      ~ts:f.t_us
      [ ("frame", num f.frame); ("during_gc", Json.Bool f.during_gc) ]
  | Recorder.Frame_free f ->
    instant ~pid ~tid:(belt_tid f.belt) ~name:"frame free" ~cat:"frame"
      ~ts:f.t_us
      [ ("frame", num f.frame) ]
  | Recorder.Belt_advance b ->
    instant ~pid ~tid:(belt_tid b.belt) ~name:"belt advance" ~cat:"belt"
      ~ts:b.t_us
      [ ("inc", num b.inc_id); ("stamp", num b.stamp) ]
  | Recorder.Reserve r ->
    common ~pid ~tid:mutator_tid ~name:"copy reserve" ~cat:"reserve" ~ph:"C"
      ~ts:r.t_us
      [ ("args", Json.Obj [ ("frames", num r.frames) ]) ]
  | Recorder.Trigger_fired tr ->
    instant ~pid ~tid:mutator_tid
      ~name:("trigger " ^ Gc_stats.reason_to_string tr.reason)
      ~cat:"trigger" ~ts:tr.t_us []

let meta ~pid ~tid ~kind name =
  Json.Obj
    [
      ("name", Json.Str kind);
      ("ph", Json.Str "M");
      ("pid", num pid);
      ("tid", num tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let track_meta ~pid ~process_name rec_ =
  let st = Beltway.Gc.state (Recorder.gc rec_) in
  let belt_name b =
    match State.los_belt st with
    | Some los when los = b -> "belt LOS"
    | _ -> Printf.sprintf "belt %d" b
  in
  meta ~pid ~tid:mutator_tid ~kind:"process_name" process_name
  :: meta ~pid ~tid:mutator_tid ~kind:"thread_name" "mutator"
  :: List.init
       (Array.length st.State.belts)
       (fun b -> meta ~pid ~tid:(belt_tid b) ~kind:"thread_name" (belt_name b))

let events_json ?(pid = 1) ?(process_name = "beltway") rec_ =
  let evs = ref [] in
  Recorder.iter_events rec_ (fun e -> evs := event_json ~pid e :: !evs);
  track_meta ~pid ~process_name rec_ @ List.rev !evs

let wrap traceEvents =
  Json.Obj
    [
      ("traceEvents", Json.Arr traceEvents);
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_json ?pid ?process_name rec_ = wrap (events_json ?pid ?process_name rec_)

let merge recs =
  wrap
    (List.concat
       (List.mapi
          (fun i (name, r) -> events_json ~pid:(i + 1) ~process_name:name r)
          recs))

let write_file file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n')

(* The GC flight recorder: ring semantics, 1:1 agreement between
   recorded pause spans and the collection log, exporter shapes, and
   the MMU cross-check. *)

module Gc = Beltway.Gc
module Gc_stats = Beltway.Gc_stats
module State = Beltway.State
module Config = Beltway.Config
module Ring = Beltway_obs.Ring
module Metrics = Beltway_obs.Metrics
module Recorder = Beltway_obs.Recorder
module Chrome_trace = Beltway_obs.Chrome_trace
module Mmu = Beltway_sim.Mmu
module Json = Beltway_util.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let cfg s = Result.get_ok (Config.parse s)

(* A small list-churning mutator that provokes a few dozen collections
   (including the closing full collection) in a 256 KB heap. *)
let traced_run ?capacity () =
  let gc = Gc.create ~config:(cfg "25.25.100") ~heap_bytes:(256 * 1024) () in
  let recorder = Recorder.attach ?capacity gc in
  let ty = Gc.register_type gc ~name:"obs.test" in
  let roots = Roots.new_global (Gc.roots gc) Value.null in
  for i = 1 to 80_000 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc a 0 (Value.of_int i);
    if i mod 64 = 0 then Roots.set_global (Gc.roots gc) roots (Value.of_addr a)
    else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) roots)
  done;
  Gc.full_collect gc;
  Recorder.detach recorder;
  (gc, recorder)

(* ---- Ring ---- *)

let test_ring () =
  let r = Ring.create ~capacity:4 ~dummy:0 in
  checkb "fresh is empty" true (Ring.is_empty r);
  for i = 1 to 10 do
    Ring.push r i
  done;
  checki "length capped" 4 (Ring.length r);
  checki "dropped counts overflow" 6 (Ring.dropped r);
  checki "oldest survivor" 7 (Ring.get r 0);
  checki "newest" 10 (Ring.get r 3);
  Alcotest.(check (list int)) "oldest-first" [ 7; 8; 9; 10 ] (Ring.to_list r);
  checki "fold" 34 (Ring.fold r ~init:0 ~f:( + ));
  Ring.clear r;
  checki "cleared" 0 (Ring.length r);
  checki "clear resets dropped" 0 (Ring.dropped r);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

(* ---- pause spans vs the collection log ---- *)

let test_pause_agreement () =
  let gc, r = traced_run () in
  let stats = Gc.stats gc in
  let gcs = Gc_stats.gcs stats in
  checkb "run collected" true (gcs > 10);
  checki "recorder saw every pause" gcs (Recorder.collections r);
  checki "pause arrays aligned" gcs (Array.length (Recorder.pause_durs_us r));
  let collection_events =
    List.filter
      (function Recorder.Collection _ -> true | _ -> false)
      (Recorder.events r)
  in
  checki "nothing dropped" 0 (Recorder.dropped r);
  checki "one span per logged collection" gcs (List.length collection_events);
  List.iteri
    (fun i ev ->
      match ev with
      | Recorder.Collection { n; reason; emergency; clock_words; copied_words; _ }
        ->
        let logged = Beltway_util.Vec.get stats.Gc_stats.collections i in
        checki "ordinal" logged.Gc_stats.n n;
        checkb "reason" true (logged.Gc_stats.reason = reason);
        checkb "emergency" logged.Gc_stats.emergency emergency;
        checki "clock" logged.Gc_stats.clock_words clock_words;
        checki "copied" logged.Gc_stats.copied_words copied_words
      | _ -> ())
    collection_events;
  (* Pause starts ascend and durations are non-negative. *)
  let starts = Recorder.pause_starts_us r in
  let durs = Recorder.pause_durs_us r in
  Array.iteri
    (fun i s ->
      checkb "dur >= 0" true (durs.(i) >= 0.0);
      if i > 0 then checkb "starts ascend" true (s >= starts.(i - 1)))
    starts

(* Every collection of every strategy, under remsets and under cards,
   opens and closes the same four phases in the same order: roots, the
   remset or card drain, the kernel's drain, the kernel's reclaim. *)
let test_phase_order () =
  List.iter
    (fun (strategy, drain, reclaim) ->
      List.iter
        (fun (barrier, barrier_phase) ->
          let config_str =
            "25.25.100" ^ barrier
            ^ if strategy = "copying" then "" else "+strategy:" ^ strategy
          in
          let expected =
            List.concat_map
              (fun p -> [ (p, true); (p, false) ])
              [ Gc_stats.Phase_roots; barrier_phase; drain; reclaim ]
          in
          let gc = Gc.create ~config:(cfg config_str) ~heap_bytes:(256 * 1024) () in
          let current = ref [] and orders = ref [] in
          State.add_hooks (Gc.state gc)
            {
              State.noop_hooks with
              on_collect_start = (fun ~reason:_ ~emergency:_ -> current := []);
              on_gc_phase = (fun ~phase ~enter -> current := (phase, enter) :: !current);
              on_collect_end = (fun ~full_heap:_ -> orders := List.rev !current :: !orders);
            };
          let ty = Gc.register_type gc ~name:"obs.order" in
          let head = Roots.new_global (Gc.roots gc) Value.null in
          for i = 1 to 30_000 do
            let a = Gc.alloc gc ~ty ~nfields:2 in
            if i mod 96 = 0 then Roots.set_global (Gc.roots gc) head (Value.of_addr a)
            else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) head)
          done;
          Gc.full_collect gc;
          checkb (config_str ^ ": collections observed") true (List.length !orders > 1);
          List.iteri
            (fun i order ->
              if order <> expected then
                Alcotest.failf "%s: collection %d phases: %s" config_str i
                  (String.concat ", "
                     (List.map
                        (fun (p, enter) ->
                          (if enter then "+" else "-") ^ Gc_stats.phase_to_string p)
                        order)))
            (List.rev !orders))
        [ ("", Gc_stats.Phase_remset); ("+cards", Gc_stats.Phase_cards) ])
    [
      ("copying", Gc_stats.Phase_cheney, Gc_stats.Phase_free);
      ("marksweep", Gc_stats.Phase_mark, Gc_stats.Phase_sweep);
      ("markcompact", Gc_stats.Phase_mark, Gc_stats.Phase_compact);
    ]

let test_phase_spans () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let seen = ref 0 in
  let saw_cheney = ref false and saw_free = ref false in
  List.iter
    (function
      | Recorder.Phase { n; phase; dur_us; _ } ->
        incr seen;
        checkb "phase belongs to a logged GC" true (n >= 1 && n <= gcs);
        checkb "phase dur >= 0" true (dur_us >= 0.0);
        (match phase with
        | Gc_stats.Phase_cheney -> saw_cheney := true
        | Gc_stats.Phase_free -> saw_free := true
        | _ -> ())
      | _ -> ())
    (Recorder.events r);
  checkb "phase spans recorded" true (!seen > 0);
  checkb "cheney phase present" true !saw_cheney;
  checkb "free phase present" true !saw_free;
  test_phase_order ()

let test_ring_overflow_keeps_pauses () =
  let gc, r = traced_run ~capacity:8 () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  checki "ring clamps retained events" 8 (Recorder.event_count r);
  checkb "overflow counted" true (Recorder.dropped r > 0);
  (* The pause log lives outside the ring, so the cross-check still
     sees every collection. *)
  checki "pauses survive overflow" gcs (Recorder.collections r)

let test_detach_restores_zero_cost () =
  let gc, _ = traced_run () in
  checkb "no hooks left installed" true ((Gc.state gc).State.hooks = [])

(* ---- exporters ---- *)

let test_metrics_json () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let m = Recorder.metrics r in
  checki "gc.collections counter" gcs (Metrics.counter m "gc.collections");
  let json = Metrics.to_json m in
  Alcotest.(check (option string))
    "schema" (Some "beltway-metrics/1")
    (Option.bind (Json.member "schema" json) Json.to_str);
  let hist name field =
    Option.bind (Json.member "histograms" json) (fun h ->
        Option.bind (Json.member name h) (fun e ->
            Option.bind (Json.member field e) Json.to_float))
  in
  Alcotest.(check (option (float 1e-9)))
    "pause_ns count" (Some (float_of_int gcs))
    (hist "gc.pause_ns" "count");
  checkb "p99 present" true (hist "gc.pause_ns" "p99" <> None);
  checkb "occupancy histogram present" true
    (hist "increment.occupancy_frames" "count" <> None);
  (* Round-trips through the parser. *)
  checkb "parses back" true
    (match Json.of_string (Json.to_string ~indent:true json) with
    | _ -> true
    | exception Json.Parse_error _ -> false)

let test_chrome_trace () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let json = Chrome_trace.to_json ~process_name:"obs-test" r in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  let str e name = Option.bind (Json.member name e) Json.to_str in
  let gc_spans =
    List.filter (fun e -> str e "ph" = Some "X" && str e "cat" = Some "gc") events
  in
  checki "one GC span per collection" gcs (List.length gc_spans);
  List.iter
    (fun e ->
      checkb "span has ts" true (Json.member "ts" e <> None);
      checkb "span has dur" true (Json.member "dur" e <> None))
    gc_spans;
  let thread_names =
    List.filter_map
      (fun e ->
        if str e "ph" = Some "M" && str e "name" = Some "thread_name" then
          Option.bind (Json.member "args" e) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str)
        else None)
      events
  in
  checkb "mutator track" true (List.mem "mutator" thread_names);
  checkb "belt tracks" true (List.exists (fun n -> n <> "mutator") thread_names)

(* ---- MMU cross-check ---- *)

let test_mmu_of_pauses () =
  let tl =
    Mmu.of_pauses ~starts:[| 0.0; 10.0 |] ~durs:[| 2.0; 2.0 |] ~total:12.0 ()
  in
  checki "pause count" 2 (Mmu.pause_count tl);
  checkf "max pause" 2.0 (Mmu.max_pause tl);
  checkf "utilization" (8.0 /. 12.0) (Mmu.utilization tl);
  (* A window the size of one pause can be fully eaten by it. *)
  checkf "mmu at pause size" 0.0 (Mmu.mmu tl ~window:2.0)

let test_crosscheck_zero_drift () =
  (* Recorded durations that are an exact rescaling of the model's
     (different units, same shape) must report zero drift. *)
  let starts = [| 0.0; 10.0; 25.0 |] and durs = [| 1.0; 2.0; 3.0 |] in
  let tl = Mmu.of_pauses ~starts ~durs () in
  let recorded = Array.map (fun d -> d *. 1000.0) durs in
  let d = Mmu.crosscheck tl ~recorded_durs:recorded in
  checki "compared all" 3 d.Mmu.compared;
  checkf "mean drift" 0.0 d.Mmu.mean_share_dev;
  checkf "max drift" 0.0 d.Mmu.max_share_dev

let test_crosscheck_real_run () =
  let gc, r = traced_run () in
  let stats = Gc.stats gc in
  let tl = Mmu.timeline Beltway_sim.Cost_model.default stats in
  let d = Mmu.crosscheck tl ~recorded_durs:(Recorder.pause_durs_us r) in
  checki "model and recorder agree on pause count" d.Mmu.model_pauses
    d.Mmu.recorded_pauses;
  checki "all pauses compared" (Gc_stats.gcs stats) d.Mmu.compared;
  checkb "shares are fractions" true
    (d.Mmu.mean_share_dev >= 0.0 && d.Mmu.max_share_dev <= 1.0)

(* ---- phase-span balance (property, raw hooks) ---- *)

(* Every phase-span begin must have a matching end, strictly inside
   its collection's start/end pair — the invariant the recorder's span
   reconstruction and the profiler's sampling both lean on. Checked
   with raw hooks (no observer in between) across a config grid and
   every registered policy's exemplar configuration. *)
let test_phase_span_balance () =
  let exemplars =
    List.map (fun (name, _) -> Beltway.Policy.exemplar name)
      Beltway.Policy.registry
  in
  List.iter
    (fun config_str ->
      let gc = Gc.create ~config:(cfg config_str) ~heap_bytes:(256 * 1024) () in
      let st = Gc.state gc in
      let in_gc = ref false and open_spans = Hashtbl.create 8 in
      let collect_ends = ref 0 in
      let bad = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
      let hooks =
        {
          State.noop_hooks with
          on_collect_start =
            (fun ~reason:_ ~emergency:_ ->
              if !in_gc then fail "%s: nested collection" config_str;
              in_gc := true);
          on_gc_phase =
            (fun ~phase ~enter ->
              if not !in_gc then
                fail "%s: phase span outside a collection" config_str;
              let n =
                Option.value (Hashtbl.find_opt open_spans phase) ~default:0
              in
              if enter then Hashtbl.replace open_spans phase (n + 1)
              else if n = 0 then
                fail "%s: phase leave without a matching enter" config_str
              else Hashtbl.replace open_spans phase (n - 1));
          on_collect_end =
            (fun ~full_heap:_ ->
              Hashtbl.iter
                (fun _ n ->
                  if n <> 0 then
                    fail "%s: %d span(s) open at collection end" config_str n)
                open_spans;
              in_gc := false;
              incr collect_ends);
        }
      in
      State.add_hooks st hooks;
      let ty = Gc.register_type gc ~name:"obs.balance" in
      let roots = Roots.new_global (Gc.roots gc) Value.null in
      for i = 1 to 30_000 do
        let a = Gc.alloc gc ~ty ~nfields:2 in
        if i mod 96 = 0 then
          Roots.set_global (Gc.roots gc) roots (Value.of_addr a)
        else Gc.write gc a 1 (Roots.get_global (Gc.roots gc) roots)
      done;
      Gc.full_collect gc;
      State.remove_hooks st hooks;
      checkb (config_str ^ ": spans balanced") true (!bad = []);
      List.iter print_endline !bad;
      checkb (config_str ^ ": collections observed") true (!collect_ends > 0);
      checkb (config_str ^ ": no collection left open") false !in_gc)
    ([ "ss"; "appel"; "25.25.100"; "appel+cards" ] @ exemplars)

(* ---- Metrics reset and stable iteration (satellite) ---- *)

let test_metrics_reset_and_iteration () =
  let gc, r = traced_run () in
  let gcs = Gc_stats.gcs (Gc.stats gc) in
  let m = Recorder.metrics r in
  let names = Metrics.histogram_names m in
  checkb "histograms present" true (names <> []);
  Alcotest.(check (list string))
    "names are sorted" (List.sort compare names) names;
  let visited = ref [] in
  Metrics.iter_histograms m (fun name _ -> visited := name :: !visited);
  Alcotest.(check (list string))
    "iteration follows histogram_names" names
    (List.rev !visited);
  checki "counters live before reset" gcs (Metrics.counter m "gc.collections");
  Metrics.reset m;
  checki "counters cleared" 0 (Metrics.counter m "gc.collections");
  Alcotest.(check (list string)) "histograms cleared" [] (Metrics.histogram_names m);
  Metrics.iter_histograms m (fun _ _ -> Alcotest.fail "iterated after reset")

(* ---- Gc_stats edge cases (satellite) ---- *)

let test_empty_stats_summary () =
  let s = Format.asprintf "%a" Gc_stats.pp_summary (Gc_stats.create ()) in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  checkb "no NaN in empty summary" false (contains "nan");
  checkb "no infinity in empty summary" false (contains "inf");
  checkb "reports zero collections" true (contains "collections: 0")

let test_reason_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Gc_stats.reason_to_string r))
        (Option.map Gc_stats.reason_to_string
           (Gc_stats.reason_of_string (Gc_stats.reason_to_string r))))
    Gc_stats.all_reasons;
  checkb "unknown rejected" true (Gc_stats.reason_of_string "bogus" = None)

let suite =
  [
    ("ring", `Quick, test_ring);
    ("pause spans match the collection log", `Quick, test_pause_agreement);
    ("phase spans", `Quick, test_phase_spans);
    ("ring overflow keeps the pause log", `Quick, test_ring_overflow_keeps_pauses);
    ("detach restores the empty hook list", `Quick, test_detach_restores_zero_cost);
    ("phase-span balance across configs and policies", `Quick,
     test_phase_span_balance);
    ("metrics reset and stable iteration", `Quick,
     test_metrics_reset_and_iteration);
    ("metrics JSON shape", `Quick, test_metrics_json);
    ("chrome trace shape", `Quick, test_chrome_trace);
    ("mmu of_pauses", `Quick, test_mmu_of_pauses);
    ("mmu cross-check zero drift", `Quick, test_crosscheck_zero_drift);
    ("mmu cross-check real run", `Quick, test_crosscheck_real_run);
    ("empty stats summary", `Quick, test_empty_stats_summary);
    ("reason round-trip", `Quick, test_reason_roundtrip);
  ]

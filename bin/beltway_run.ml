(* beltway-run: run one workload under one collector configuration and
   report collector statistics — the reproduction's analogue of picking
   a GC on the Jikes RVM command line (the paper's headline interface:
   "Beltway configurations, selected by command line options"). *)

let sanitizer_level = function
  | None -> Beltway_check.Sanitizer.env_level ()
  | Some n -> (
    match Beltway_check.Sanitizer.level_of_int n with
    | Some l -> l
    | None ->
      Printf.eprintf "error: --sanitize takes 0, 1 or 2 (got %d)\n" n;
      exit 2)

let sanitizer_report san =
  if Beltway_check.Sanitizer.enabled san then begin
    Beltway_check.Sanitizer.check_now san;
    Format.printf "%a" Beltway_check.Sanitizer.report san;
    if not (Beltway_check.Sanitizer.ok san) then exit 1
  end

let list_policies () =
  List.iter
    (fun (name, _) ->
      Printf.printf "%-12s %s\n%-12s exemplar: %s\n" name
        (Beltway.Policy.describe name) ""
        (Beltway.Policy.exemplar name))
    Beltway.Policy.registry;
  exit 0

let list_strategies () =
  List.iter
    (fun (i : Beltway.Strategy.info) ->
      Printf.printf "%-12s %s\n%-12s exemplar: %s\n" i.Beltway.Strategy.key
        i.Beltway.Strategy.summary "" i.Beltway.Strategy.exemplar_config)
    Beltway.Strategy.infos;
  exit 0

let run config_str bench_name heap_kb verify_heap quiet dump sanitize trace
    metrics profile policy strategy =
  if policy = Some "list" then list_policies ();
  if strategy = Some "list" then list_strategies ();
  let config_str =
    match policy with
    | Some name -> config_str ^ "+policy:" ^ name
    | None -> config_str
  in
  let config_str =
    match strategy with
    | Some name -> config_str ^ "+strategy:" ^ name
    | None -> config_str
  in
  match Beltway.Config.parse config_str with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 2
  | Ok config -> (
    (* Resolve early so an unknown +policy:NAME / +strategy:NAME is a
       clean CLI error, not an Invalid_argument out of Gc.create. *)
    (match Beltway.Policy.resolve config with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2);
    (match Beltway.Strategy.resolve config with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2);
    match Beltway_workload.Spec.by_name bench_name with
    | None ->
      Printf.eprintf "error: unknown benchmark %S (have: %s)\n" bench_name
        (String.concat ", "
           (List.map (fun b -> b.Beltway_workload.Spec.name) Beltway_workload.Spec.all));
      exit 2
    | Some bench ->
      let gc =
        Beltway.Gc.create ~frame_log_words:Beltway_sim.Runner.frame_log_words
          ~config ~heap_bytes:(heap_kb * 1024) ()
      in
      let san = Beltway_check.Sanitizer.attach ~level:(sanitizer_level sanitize) gc in
      let trace_file =
        match trace with Some _ -> trace | None -> Beltway_obs.Recorder.env_file ()
      in
      let recorder =
        if trace_file <> None || metrics <> None then
          Some (Beltway_obs.Recorder.attach gc)
        else None
      in
      let profile_file =
        match profile with
        | Some _ -> profile
        | None -> Beltway_obs.Profiler.env_file ()
      in
      let profiler =
        if profile_file <> None then Some (Beltway_obs.Profiler.attach gc)
        else None
      in
      let export_profile () =
        match (profiler, profile_file) with
        | Some p, Some f ->
          Beltway_obs.Profiler.detach p;
          Beltway_obs.Profiler.write_file f
            [
              Beltway_obs.Profiler.run_json
                ~name:bench.Beltway_workload.Spec.name p;
            ];
          if not quiet then begin
            Format.printf "%a@." (Beltway_obs.Profiler.report ~top:10) p;
            Format.printf "profile:     %s@." f
          end
        | _ -> ()
      in
      let export_obs () =
        match recorder with
        | None -> ()
        | Some r ->
          Beltway_obs.Recorder.detach r;
          Option.iter
            (fun f ->
              Beltway_obs.Chrome_trace.write_file f
                (Beltway_obs.Chrome_trace.to_json
                   ~process_name:bench.Beltway_workload.Spec.name r);
              if not quiet then
                Format.printf "trace:       %s (%d events, %d dropped)@." f
                  (Beltway_obs.Recorder.event_count r)
                  (Beltway_obs.Recorder.dropped r))
            trace_file;
          Option.iter
            (fun f ->
              Beltway_obs.Chrome_trace.write_file f
                (Beltway_obs.Metrics.to_json (Beltway_obs.Recorder.metrics r));
              if not quiet then Format.printf "metrics:     %s@." f)
            metrics
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        try
          bench.Beltway_workload.Spec.run gc;
          Ok ()
        with Beltway.Gc.Out_of_memory m -> Error m
      in
      let wall = Unix.gettimeofday () -. t0 in
      let stats = Beltway.Gc.stats gc in
      let model = Beltway_sim.Cost_model.default in
      (match outcome with
      | Ok () ->
        if not quiet then begin
          Format.printf "benchmark:   %s (%s)@." bench.Beltway_workload.Spec.name
            bench.Beltway_workload.Spec.description;
          (* the collector itself is named by the summary header below *)
          Format.printf "heap:        %d KB (%d frames of %d KB)@."
            (Beltway.Gc.heap_bytes gc / 1024)
            (Beltway.Gc.heap_frames gc)
            (Beltway.Gc.frame_bytes gc / 1024);
          Format.printf "%a@." Beltway.Gc_stats.pp_summary stats;
          Format.printf "model time:  total %.3e units (GC %.3e, mutator %.3e — %.1f%% in GC)@."
            (Beltway_sim.Cost_model.total_time model stats)
            (Beltway_sim.Cost_model.gc_time model stats)
            (Beltway_sim.Cost_model.mutator_time model stats)
            (100.0
            *. Beltway_sim.Cost_model.gc_time model stats
            /. Float.max 1.0 (Beltway_sim.Cost_model.total_time model stats));
          Format.printf "wall clock:  %.3fs (simulation)@." wall;
          (match recorder with
          | Some r when Beltway_obs.Recorder.collections r > 0 ->
            let tl = Beltway_sim.Mmu.timeline model stats in
            Format.printf "%a@." Beltway_sim.Mmu.pp_drift
              (Beltway_sim.Mmu.crosscheck tl
                 ~recorded_durs:(Beltway_obs.Recorder.pause_durs_us r))
          | _ -> ())
        end;
        export_obs ();
        export_profile ();
        if dump then Format.printf "%a@." Beltway.Gc.pp_heap gc;
        if verify_heap then begin
          match Beltway.Verify.check gc with
          | Ok () -> Format.printf "heap integrity: OK@."
          | Error e ->
            Format.printf "heap integrity: FAILED: %s@." e;
            exit 1
        end;
        sanitizer_report san
      | Error m ->
        export_obs ();
        export_profile ();
        Format.printf "OUT OF MEMORY after %d collections: %s@."
          (Beltway.Gc_stats.gcs stats) m;
        exit 3))

open Cmdliner

let config_arg =
  let doc =
    "Collector configuration: ss, appel, appel3, fixed:N, ofm:N, of:N, X.Y, \
     X.Y.100, with +nofilter/+ttd:N/+remtrig:N/+halfreserve option suffixes."
  in
  Arg.(value & opt string "25.25.100" & info [ "g"; "gc" ] ~docv:"CONFIG" ~doc)

let bench_arg =
  let doc = "Benchmark: jess, raytrace, db, javac, jack, pseudojbb." in
  Arg.(value & opt string "jess" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let heap_arg =
  let doc = "Heap size in KiB." in
  Arg.(value & opt int 1024 & info [ "H"; "heap-kb" ] ~docv:"KB" ~doc)

let verify_arg =
  let doc = "Run the full heap-integrity checker afterwards." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let quiet_arg =
  let doc = "Suppress the statistics report." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let dump_arg =
  let doc = "Print the final belt/increment structure." in
  Arg.(value & flag & info [ "dump" ] ~doc)

let sanitize_arg =
  let doc =
    "Run under the differential heap sanitizer: 1 = shadow-heap diff at every \
     collection, 2 = also full integrity verification (default when the level \
     is omitted). Overrides $(b,BELTWAY_SANITIZE)."
  in
  Arg.(
    value
    & opt ~vopt:(Some 2) (some int) None
    & info [ "sanitize" ] ~docv:"LEVEL" ~doc)

let trace_arg =
  let doc =
    "Attach the GC flight recorder and write a Chrome trace_event JSON trace \
     to $(docv) (load in chrome://tracing or Perfetto). Overrides \
     $(b,BELTWAY_TRACE)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Attach the GC flight recorder and write a JSON metrics snapshot (pause \
     and occupancy distributions with p50/p90/p99, trigger and frame \
     counters) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Attach the object-demographics profiler and write a beltway-profile/1 \
     JSON report (per-site allocation/survival counts, per-belt age \
     histograms, promotion matrix, occupancy series) to $(docv); a text \
     top-sites report is printed unless $(b,--quiet). Overrides \
     $(b,BELTWAY_PROFILE)."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let policy_arg =
  let doc =
    "Select the collector policy from the registry by $(docv) (shorthand for \
     a +policy:$(docv) suffix on the configuration); $(b,--policy list) \
     prints the registry and exits."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)

let strategy_arg =
  let doc =
    "Select the reclamation strategy from the registry by $(docv) — copying \
     (default), marksweep or markcompact (shorthand for a +strategy:$(docv) \
     suffix on the configuration); $(b,--strategy list) prints the registry \
     and exits."
  in
  Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"NAME" ~doc)

let cmd =
  let doc = "run a synthetic benchmark under a Beltway collector configuration" in
  Cmd.v
    (Cmd.info "beltway-run" ~doc)
    Term.(
      const run $ config_arg $ bench_arg $ heap_arg $ verify_arg $ quiet_arg
      $ dump_arg $ sanitize_arg $ trace_arg $ metrics_arg $ profile_arg
      $ policy_arg $ strategy_arg)

let () = exit (Cmd.eval cmd)

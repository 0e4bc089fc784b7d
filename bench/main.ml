(* The benchmark harness.

   Part 1 — Bechamel micro-benchmarks: real wall-clock cost of the
   mechanisms the paper builds (S3.3): the frame-based write barrier's
   fast and slow paths, remembered-set insertion, bump allocation (with
   amortised collection), and Cheney evacuation throughput. These
   ground the abstract cost model in measured nanoseconds.

   Part 2 — the paper's evaluation: every table and figure (Table 1,
   Figures 1 and 5-11) regenerated by the simulation harness, plus the
   mechanism ablation. The (benchmark x config x heap size) grid fans
   out over a domain pool (--jobs N / BELTWAY_JOBS; the default is
   Domain.recommended_domain_count); output is byte-identical at any
   job count. Output is the text-table form of each plot; see
   EXPERIMENTS.md for the paper-vs-measured comparison.

   Part 3 — interpreter throughput: every bundled Beltlang program run
   under both the AST walker and the bytecode VM on the full beltway
   configuration, timed min-over-batches, with the VM's speedup over
   the tree walker. This is the mutator-side counterpart of Part 1:
   the same allocation and barrier fast paths, driven by a real
   language front end instead of a fixture loop.

   All parts are recorded machine-readably in BENCH_results.json
   (schema beltway-bench/6: {name, policy, strategy, ns_per_run} per
   micro-benchmark — keyed by the registry policy and reclamation
   strategy the fixture's configuration resolves to — {phase, seconds,
   jobs, gc_domains} per harness phase (gc_domains is always 1),
   {name, engine, seconds, ops_per_sec, allocs_per_sec,
   speedup_vs_ast} per interpreter row, and a host header carrying
   Domain.recommended_domain_count so timings are interpretable on
   whatever box produced them) so successive changes leave a perf
   trajectory.

   Run with: dune exec bench/main.exe
   (add --full for the paper's 33-point heap ladder; --micro-only /
   --figures-only to restrict; --smoke for a seconds-long sanity run;
   --validate FILE to schema-check a previously written results
   file) *)

open Bechamel
open Toolkit

module Gc = Beltway.Gc
module Config = Beltway.Config
module Json = Beltway_util.Json
open Beltway_heap

let cfg_of s = Result.get_ok (Config.parse s)

(* Registry names of the policy and reclamation strategy a
   configuration string resolves to; rows and BENCH_results.json
   entries are keyed by the pair. "-" marks a fixture that exercises a
   bare mechanism, not a collector. *)
let policy_of s = Beltway.Policy.name (Beltway.Policy.resolve_exn (cfg_of s))
let strategy_of s = Beltway.Strategy.name (Beltway.Strategy.resolve_exn (cfg_of s))
let no_policy = "-"
let keyed s = (policy_of s, strategy_of s)

(* ---- micro-benchmark fixtures ---------------------------------- *)

(* Allocation (garbage only): measures the bump path plus the amortised
   cost of the nursery collections it causes. *)
let bench_alloc () =
  let gc = Gc.create ~config:(cfg_of "appel") ~heap_bytes:(16 * 1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  Test.make ~name:"alloc 8-field object (amortised GC)"
    (Staged.stage (fun () -> ignore (Gc.alloc gc ~ty ~nfields:8)))

(* Barrier fast path: a ref store whose source and target share a
   frame — shift, compare, done. *)
let bench_barrier_fast () =
  let gc = Gc.create ~config:(cfg_of "appel+nofilter") ~heap_bytes:(1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  let b = Gc.alloc gc ~ty ~nfields:2 in
  let ga = Roots.new_global roots (Value.of_addr a) in
  let gb = Roots.new_global roots (Value.of_addr b) in
  Test.make ~name:"write barrier, fast path (intra-frame ref store)"
    (Staged.stage (fun () ->
         let a = Value.to_addr (Roots.get_global roots ga) in
         let b = Roots.get_global roots gb in
         Gc.write gc a 0 b))

(* Barrier slow path: an old object repeatedly made to point at a young
   one — every store inserts a remembered-set entry. *)
let bench_barrier_slow () =
  let gc = Gc.create ~config:(cfg_of "25.25.100") ~heap_bytes:(4 * 1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let old_g = Roots.new_global roots Value.null in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  Roots.set_global roots old_g (Value.of_addr a);
  Gc.full_collect gc;
  let young = Gc.alloc gc ~ty ~nfields:2 in
  let young_g = Roots.new_global roots (Value.of_addr young) in
  Test.make ~name:"write barrier, slow path (old-to-young store + remset insert)"
    (Staged.stage (fun () ->
         let old_addr = Value.to_addr (Roots.get_global roots old_g) in
         Gc.write gc old_addr 0 (Roots.get_global roots young_g)))

(* Raw remembered-set insertion with rotating slots. *)
let bench_remset_insert () =
  let r = Beltway.Remset.create () in
  let i = ref 0 in
  Test.make ~name:"remset insert (rotating slots)"
    (Staged.stage (fun () ->
         incr i;
         Beltway.Remset.insert r ~src_frame:(!i land 63) ~tgt_frame:1
           ~slot:(1024 + (!i land 0xFFFF))))

(* Cheney evacuation throughput: each run fully collects ~128 KB of
   live list data (which survives into the next run). *)
let bench_cheney () =
  let gc = Gc.create ~config:(cfg_of "ss") ~heap_bytes:(2 * 1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let head = Roots.new_global roots Value.null in
  for i = 1 to 8_000 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc a 0 (Value.of_int i);
    Gc.write gc a 1 (Roots.get_global roots head);
    Roots.set_global roots head (Value.of_addr a)
  done;
  Test.make ~name:"Cheney evacuation of 128KB live data (semi-space flip)"
    (Staged.stage (fun () -> Gc.full_collect gc))

(* Slot-scan throughput: the collector's inner loop — a direct for-loop
   over an object's contiguous slot range, field count straight off the
   header word — walked over a resident increment. No plan, so nothing
   forwards: this isolates the scan from the copy. *)
let bench_slot_scan () =
  let gc = Gc.create ~config:(cfg_of "ss") ~heap_bytes:(2 * 1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let head = Roots.new_global roots Value.null in
  for i = 1 to 4_000 do
    let a = Gc.alloc gc ~ty ~nfields:8 in
    Gc.write gc a 0 (Value.of_int i);
    Gc.write gc a 1 (Roots.get_global roots head);
    Roots.set_global roots head (Value.of_addr a)
  done;
  let st = Gc.state gc in
  let mem = st.Beltway.State.mem in
  (* The benchmark never allocates, so the fullest increment is stable
     for the whole run. *)
  let inc =
    List.fold_left
      (fun best (i : Beltway.Increment.t) ->
        match best with
        | Some (b : Beltway.Increment.t) when b.objects >= i.objects -> best
        | _ -> Some i)
      None
      (Beltway.State.live_increments st)
    |> Option.get
  in
  Test.make
    ~name:
      (Printf.sprintf "slot scan of a resident increment (%d objects)"
         inc.Beltway.Increment.objects)
    (Staged.stage (fun () ->
         let refs = ref 0 in
         Beltway.Increment.iter_objects inc mem (fun obj ->
             let n = Memory.unsafe_get mem obj lsr 1 in
             for slot = obj + 1 to obj + 1 + n do
               if Value.is_ref (Memory.unsafe_get mem slot) then incr refs
             done);
         ignore !refs))

(* Minor collection under each barrier mode over the same heap shape:
   resident old objects receive old-to-young stores, then the nursery
   is collected. Remsets pay per remembered slot; cards pay by scanning
   every object of each dirty old frame. *)
let bench_minor config_str name =
  let gc = Gc.create ~config:(cfg_of config_str) ~heap_bytes:(4 * 1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let nold = 512 in
  let olds =
    Array.init nold (fun _ ->
        let a = Gc.alloc gc ~ty ~nfields:8 in
        Roots.new_global roots (Value.of_addr a))
  in
  (* Promote the resident set out of the nursery. *)
  Gc.full_collect gc;
  Test.make ~name
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           let young = Gc.alloc gc ~ty ~nfields:2 in
           let old_addr = Value.to_addr (Roots.get_global roots olds.(i)) in
           Gc.write gc old_addr 0 (Value.of_addr young)
         done;
         Gc.collect gc))

let bench_minor_remsets () =
  bench_minor "25.25.100"
    "minor collection, remset barrier (64 old-to-young stores)"

let bench_minor_cards () =
  bench_minor "25.25.100+cards"
    "minor collection, card barrier (64 old-to-young stores)"

(* The nursery filter: the same nursery-internal ref store with the
   filter deciding by open-increment identity versus the unfiltered
   stamp comparison. *)
let bench_barrier_nursery config_str name =
  let gc = Gc.create ~config:(cfg_of config_str) ~heap_bytes:(1024 * 1024) () in
  let ty = Gc.register_type gc ~name:"bench.obj" in
  let roots = Gc.roots gc in
  let a = Gc.alloc gc ~ty ~nfields:2 in
  let b = Gc.alloc gc ~ty ~nfields:2 in
  let ga = Roots.new_global roots (Value.of_addr a) in
  let gb = Roots.new_global roots (Value.of_addr b) in
  Test.make ~name
    (Staged.stage (fun () ->
         let a = Value.to_addr (Roots.get_global roots ga) in
         let b = Roots.get_global roots gb in
         Gc.write gc a 0 b))

let bench_barrier_filter_on () =
  bench_barrier_nursery "25.25.100" "write barrier, nursery store (filter on)"

let bench_barrier_filter_off () =
  bench_barrier_nursery "25.25.100+nofilter"
    "write barrier, nursery store (filter off)"

(* Frame-sized block copy through the flat memory backing. *)
let bench_memory_blit () =
  let mem = Memory.create ~frame_log_words:10 ~max_frames:8 in
  let src = Memory.frame_base mem (Memory.alloc_frame mem) in
  let dst = Memory.frame_base mem (Memory.alloc_frame mem) in
  let words = Memory.frame_words mem in
  Test.make ~name:"Memory.blit of one 4KB frame"
    (Staged.stage (fun () -> Memory.blit mem ~src ~dst ~len:words))

(* Each fixture keyed by the registry policy and reclamation strategy
   its configuration resolves to (the policy and strategy columns of
   the timing table). *)
let micro_tests () =
  [
    (keyed "appel", bench_alloc ());
    (keyed "appel+nofilter", bench_barrier_fast ());
    (keyed "25.25.100", bench_barrier_slow ());
    ((no_policy, no_policy), bench_remset_insert ());
    (keyed "ss", bench_cheney ());
    (keyed "ss", bench_slot_scan ());
    (keyed "25.25.100", bench_minor_remsets ());
    (keyed "25.25.100+cards", bench_minor_cards ());
    (keyed "25.25.100", bench_barrier_filter_on ());
    (keyed "25.25.100+nofilter", bench_barrier_filter_off ());
    ((no_policy, no_policy), bench_memory_blit ());
  ]
  (* ... plus one minor-collection bench per registered policy, under
     its exemplar configuration: a new registry entry shows up in the
     timing table automatically. *)
  @ List.map
      (fun (name, _) ->
        let ex = Beltway.Policy.exemplar name in
        ( keyed ex,
          bench_minor ex
            (Printf.sprintf "minor collection under policy %s (%s)" name ex) ))
      Beltway.Policy.registry
  (* ... and one per registered reclamation strategy, same shape: the
     copying row doubles as the baseline the in-place rows are read
     against. *)
  @ List.map
      (fun (i : Beltway.Strategy.info) ->
        let ex = i.Beltway.Strategy.exemplar_config in
        ( keyed ex,
          bench_minor ex
            (Printf.sprintf "minor collection under strategy %s (%s)"
               i.Beltway.Strategy.key ex) ))
      Beltway.Strategy.infos

let run_micro ~smoke () =
  print_endline "== Bechamel micro-benchmarks (mechanisms of paper S3.3) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let benchmark_cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let results =
    List.concat_map
      (fun ((policy, strategy), test) ->
        let results = Benchmark.all benchmark_cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (e :: _) -> e
              | _ -> Float.nan
            in
            (policy, strategy, name, ns) :: acc)
          analyzed [])
      (micro_tests ())
  in
  Printf.printf "%-12s %-12s %s\n" "policy" "strategy" "benchmark";
  List.iter
    (fun (policy, strategy, name, ns) ->
      Printf.printf "%-12s %-12s %-64s %12.1f ns/run\n%!" policy strategy name ns)
    results;
  print_newline ();
  results

(* ---- interpreter throughput (AST walker vs bytecode VM) --------- *)

(* How fast can Beltlang drive the heap? One row per bundled program
   per engine: wall seconds (min over batches — the best noise filter
   for wall time), throughput in ops/sec and allocations/sec. "Ops" is
   the engine-independent work measure: the number of bytecode
   instructions the compiled program executes, a fixed property of the
   program — so the ops/sec ratio between engines is exactly their
   wall-time ratio, and the same denominator makes rows comparable
   across PRs. Both engines run the same collector configuration and
   heap as the beltlang CLI's defaults; their outputs and GC stats are
   byte-identical (the @bytecode differential gate), so any difference
   is engine speed alone. *)
let run_interpreter ~smoke () =
  print_endline "== Interpreter throughput: AST walker vs bytecode VM ==";
  let config = cfg_of "25.25.100" in
  let heap_bytes = 512 * 1024 in
  let batches = if smoke then 1 else 3 in
  let mk () = Gc.create ~config ~heap_bytes () in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to batches do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let rows =
    List.concat_map
      (fun (p : Beltlang.Programs.t) ->
        let ast = Beltlang.Ast.compile (Beltlang.Sexp.parse_string p.source) in
        let bc = Beltlang.Compile.compile ast in
        (* ops and allocs: fixed properties of the program, read off a
           warmup VM run *)
        let warm_gc = mk () in
        let warm = Beltlang.Vm.create warm_gc in
        Beltlang.Vm.run_compiled warm bc;
        let ops = Beltlang.Vm.instructions warm in
        let allocs =
          (Beltway.Gc.stats warm_gc).Beltway.Gc_stats.objects_allocated
        in
        let t_ast =
          time_min (fun () -> Beltlang.Interp.run (Beltlang.Interp.create (mk ())) ast)
        in
        let t_vm =
          time_min (fun () -> Beltlang.Vm.run_compiled (Beltlang.Vm.create (mk ())) bc)
        in
        let speedup = t_ast /. t_vm in
        Printf.printf
          "  %-12s ast %7.1f ms  vm %7.1f ms  %5.2fx   (%5.1f -> %6.1f Mops/s, %.1f Mallocs/s)\n%!"
          p.name (t_ast *. 1e3) (t_vm *. 1e3) speedup
          (float_of_int ops /. t_ast /. 1e6)
          (float_of_int ops /. t_vm /. 1e6)
          (float_of_int allocs /. t_vm /. 1e6);
        let row engine seconds speedup =
          (p.name, engine, seconds, ops, allocs, speedup)
        in
        [ row "ast" t_ast None; row "bytecode" t_vm (Some speedup) ])
      Beltlang.Programs.all
  in
  let ratios =
    List.filter_map (fun (_, _, _, _, _, s) -> s) rows
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios
         /. float_of_int (List.length ratios))
  in
  Printf.printf "  geomean speedup: %.2fx\n\n%!" geomean;
  rows

(* ---- machine-readable results ----------------------------------- *)

let results_file = "BENCH_results.json"

(* Regression-gate thresholds, per section (see [run_baseline]): a
   current run is compared entry-by-entry against a prior results
   file, and any ratio beyond these limits is a regression (non-zero
   exit). Micro and phase timings are lower-is-better wall clocks
   (phases get the loosest bound — they time whole harness sections,
   the noisiest numbers here); interpreter throughput is
   higher-is-better. The emitted file carries the thresholds under
   "baseline" so any results file documents the gate it was held to. *)
let baseline_micro_max_ratio = 1.30
let baseline_phases_max_ratio = 1.50
let baseline_interp_min_ratio = 0.90

let write_results ~smoke ~micro ~interpreter ~phases ~profile =
  let json =
    Json.Obj
      [
        ("schema", Json.Str "beltway-bench/6");
        (* A smoke run's tiny quota makes its timings measurement-free
           noise; the baseline gate reports but does not enforce
           against a file carrying this marker. *)
        ("smoke", Json.Bool smoke);
        ( "baseline",
          Json.Obj
            [
              ("micro_max_ratio", Json.Num baseline_micro_max_ratio);
              ("phases_max_ratio", Json.Num baseline_phases_max_ratio);
              ("interpreter_min_ratio", Json.Num baseline_interp_min_ratio);
            ] );
        ( "profile",
          match profile with None -> Json.Null | Some f -> Json.Str f );
        (* Host facts that make timings interpretable when the file
           comes off a CI box: the harness phases' --jobs scaling means
           nothing without knowing how many cores were there. *)
        ( "host",
          Json.Obj
            [
              ( "recommended_domain_count",
                Json.Num (float_of_int (Domain.recommended_domain_count ())) );
            ] );
        ( "interpreter",
          Json.Arr
            (List.map
               (fun (name, engine, seconds, ops, allocs, speedup) ->
                 Json.Obj
                   ([
                      ("name", Json.Str name);
                      ("engine", Json.Str engine);
                      ("seconds", Json.Num seconds);
                      ("ops", Json.Num (float_of_int ops));
                      ("ops_per_sec", Json.Num (float_of_int ops /. seconds));
                      ("allocs", Json.Num (float_of_int allocs));
                      ( "allocs_per_sec",
                        Json.Num (float_of_int allocs /. seconds) );
                    ]
                   @
                   match speedup with
                   | None -> []
                   | Some s -> [ ("speedup_vs_ast", Json.Num s) ]))
               interpreter) );
        ( "micro",
          Json.Arr
            (List.map
               (fun (policy, strategy, name, ns) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("policy", Json.Str policy);
                     ("strategy", Json.Str strategy);
                     ("ns_per_run", Json.Num ns);
                   ])
               micro) );
        ( "phases",
          Json.Arr
            (List.map
               (fun (phase, seconds, jobs) ->
                 Json.Obj
                   [
                     ("phase", Json.Str phase);
                     ("seconds", Json.Num seconds);
                     ("jobs", Json.Num (float_of_int jobs));
                     (* Collections run on one domain; the column stays
                        so v6 files keep one shape and diff against
                        older ones under --baseline. *)
                     ("gc_domains", Json.Num 1.0);
                   ])
               phases) );
      ]
  in
  Out_channel.with_open_text results_file (fun oc ->
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n');
  Printf.printf "results written to %s\n%!" results_file

(* Schema check for a results, metrics, or Chrome-trace file (sniffed
   from the document shape), used by the cram tests; exercises the
   parser, not the emitter, so a malformed write fails loudly. *)
let validate file =
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  let content =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e ->
      (* Sys_error messages already name the file *)
      Printf.eprintf "%s\n" e;
      exit 1
  in
  let json =
    match Json.of_string content with
    | j -> j
    | exception Json.Parse_error e -> fail ("parse error: " ^ e)
  in
  let arr name =
    match Option.bind (Json.member name json) Json.to_list with
    | Some items -> items
    | None -> fail (Printf.sprintf "missing or non-array %S" name)
  in
  let str_field obj name =
    match Option.bind (Json.member name obj) Json.to_str with
    | Some s -> s
    | None -> fail (Printf.sprintf "entry missing string field %S" name)
  in
  let num_field ?(nullable = false) obj name =
    match Json.member name obj with
    | Some (Json.Num _) -> ()
    | Some Json.Null when nullable -> ()
    | _ -> fail (Printf.sprintf "entry missing numeric field %S" name)
  in
  let obj_field name =
    match Json.member name json with
    | Some (Json.Obj kvs) -> kvs
    | _ -> fail (Printf.sprintf "missing or non-object %S" name)
  in
  let validate_trace () =
    (* Chrome trace_event JSON object format: every event carries
       ph/name/pid/tid; timed phases also carry ts, complete spans a
       dur. The file must contain at least one GC pause span. *)
    let gc_spans = ref 0 in
    List.iter
      (fun e ->
        let ph = str_field e "ph" in
        ignore (str_field e "name");
        num_field e "pid";
        num_field e "tid";
        if ph <> "M" then num_field e "ts";
        if ph = "X" then begin
          num_field e "dur";
          if Option.bind (Json.member "cat" e) Json.to_str = Some "gc" then
            incr gc_spans
        end)
      (arr "traceEvents");
    if !gc_spans = 0 then fail "no GC pause spans (ph=X, cat=gc)"
  in
  let validate_metrics () =
    ignore (obj_field "counters");
    ignore (obj_field "gauges");
    List.iter
      (fun (_, h) ->
        List.iter (num_field h) [ "count"; "mean"; "max"; "p50"; "p90"; "p99" ])
      (obj_field "histograms")
  in
  let validate_profile () =
    List.iter
      (fun run ->
        ignore (str_field run "name");
        ignore (str_field run "config");
        ignore (str_field run "policy");
        num_field run "collections";
        List.iter
          (fun site ->
            ignore (str_field site "site");
            List.iter (num_field site)
              [
                "id";
                "alloc_objects";
                "alloc_words";
                "copied_objects";
                "copied_words";
                "dead_objects";
                "top_belt_objects";
              ])
          (match Option.bind (Json.member "sites" run) Json.to_list with
          | Some l -> l
          | None -> fail "run missing array \"sites\"");
        List.iter
          (fun belt ->
            num_field belt "belt";
            match Json.member "age_histogram" belt with
            | Some (Json.Obj _ as h) ->
              List.iter (num_field h) [ "bucket_words"; "count"; "max_age" ]
            | _ -> fail "belt entry missing object \"age_histogram\"")
          (match Option.bind (Json.member "belts" run) Json.to_list with
          | Some l -> l
          | None -> fail "run missing array \"belts\"");
        (match Json.member "promotions" run with
        | Some (Json.Arr _) -> ()
        | _ -> fail "run missing array \"promotions\"");
        List.iter
          (fun s ->
            List.iter (num_field s)
              [ "gc"; "clock_words"; "frames_used"; "remset_entries"; "pause_us" ])
          (match Option.bind (Json.member "series" run) Json.to_list with
          | Some l -> l
          | None -> fail "run missing array \"series\""))
      (arr "runs")
  in
  let validate_results () =
    (* beltway-bench/1 predates the policy column; anything newer must
       key every micro entry by its registry policy. beltway-bench/3
       adds the gc_domains column to every phase row (the parallel
       drain's per-domain-count timings); 1 and 2 are accepted
       without it. *)
    let schema = Option.bind (Json.member "schema" json) Json.to_str in
    (* Unknown or future schema strings are rejected outright — a
       validator that waves through a schema it does not know checks
       nothing. A file with no schema at all is held to the newest
       requirements (the emitter always writes one; see the cram). *)
    (match schema with
    | Some s
      when not
             (List.mem s
                [
                  "beltway-bench/1";
                  "beltway-bench/2";
                  "beltway-bench/3";
                  "beltway-bench/4";
                  "beltway-bench/5";
                  "beltway-bench/6";
                ]) ->
      fail (Printf.sprintf "unknown schema %S" s)
    | _ -> ());
    let requires_policy = schema <> Some "beltway-bench/1" in
    (* beltway-bench/6 adds the reclamation-strategy key to every
       micro entry; 1-5 are accepted without it. *)
    let requires_strategy =
      match schema with
      | Some "beltway-bench/1" | Some "beltway-bench/2" | Some "beltway-bench/3"
      | Some "beltway-bench/4" | Some "beltway-bench/5" ->
        false
      | _ -> true
    in
    let requires_gc_domains =
      match schema with
      | Some "beltway-bench/1" | Some "beltway-bench/2" -> false
      | _ -> true
    in
    (* beltway-bench/4 adds the host header (cores, so scaling rows
       are interpretable on CI boxes) and the interpreter-throughput
       section; 1-3 are accepted without them. *)
    let requires_host =
      match schema with
      | Some "beltway-bench/1" | Some "beltway-bench/2" | Some "beltway-bench/3"
        -> false
      | _ -> true
    in
    List.iter
      (fun entry ->
        ignore (str_field entry "name");
        if requires_policy then ignore (str_field entry "policy");
        if requires_strategy then ignore (str_field entry "strategy");
        (* a micro-benchmark that failed to estimate records null *)
        num_field ~nullable:true entry "ns_per_run")
      (arr "micro");
    List.iter
      (fun entry ->
        ignore (str_field entry "phase");
        num_field entry "seconds";
        num_field entry "jobs";
        if requires_gc_domains then num_field entry "gc_domains")
      (arr "phases");
    if requires_host then begin
      let host =
        match Json.member "host" json with
        | Some (Json.Obj _ as h) -> h
        | _ -> fail "missing or non-object \"host\""
      in
      num_field host "recommended_domain_count";
      List.iter
        (fun entry ->
          ignore (str_field entry "name");
          ignore (str_field entry "engine");
          num_field entry "seconds";
          num_field entry "ops_per_sec";
          num_field entry "allocs_per_sec")
        (arr "interpreter")
    end;
    (* beltway-bench/5 adds the regression-gate thresholds (so a
       results file names the gate it passed) and the profile-output
       pointer; 1-4 are accepted without them. *)
    let requires_baseline =
      match schema with
      | Some "beltway-bench/1" | Some "beltway-bench/2" | Some "beltway-bench/3"
      | Some "beltway-bench/4" ->
        false
      | _ -> true
    in
    if requires_baseline then begin
      let baseline =
        match Json.member "baseline" json with
        | Some (Json.Obj _ as b) -> b
        | _ -> fail "missing or non-object \"baseline\""
      in
      List.iter (num_field baseline)
        [ "micro_max_ratio"; "phases_max_ratio"; "interpreter_min_ratio" ];
      match Json.member "profile" json with
      | Some (Json.Str _) | Some Json.Null -> ()
      | _ -> fail "missing or non-string/null \"profile\""
    end
  in
  (match
     (Json.member "traceEvents" json, Option.bind (Json.member "schema" json) Json.to_str)
   with
  | Some _, _ -> validate_trace ()
  | None, Some "beltway-metrics/1" -> validate_metrics ()
  | None, Some "beltway-profile/1" -> validate_profile ()
  | None, _ -> validate_results ());
  Printf.printf "%s: ok\n" file;
  exit 0

(* ---- traced sweep ----------------------------------------------- *)

(* Flight-recorder pass over the six benchmarks: each runs once at 4x
   its minimum-heap hint with the recorder attached, per-pause phase
   spans land in one merged Chrome trace (one process per benchmark),
   and the cost model's pause reconstruction is cross-checked against
   the recorded wall-clock pauses. *)
let run_trace file =
  print_endline "== Traced benchmark sweep (GC flight recorder) ==";
  let config = cfg_of "25.25.100" in
  let recorders =
    List.map
      (fun (bench : Beltway_workload.Spec.t) ->
        let heap_frames = max 8 (4 * bench.min_heap_hint_frames) in
        let result, recorder =
          Beltway_sim.Runner.run_traced ~bench ~config ~heap_frames ()
        in
        let drift = Beltway_sim.Runner.crosscheck_mmu result recorder in
        Printf.printf "%-10s %5d frames  %4d collections  %6d events%s\n"
          bench.name heap_frames
          (Beltway_obs.Recorder.collections recorder)
          (Beltway_obs.Recorder.event_count recorder)
          (if result.Beltway_sim.Runner.completed then "" else "  [OOM]");
        Format.printf "  %a@." Beltway_sim.Mmu.pp_drift drift;
        (bench.name, recorder))
      Beltway_workload.Spec.all
  in
  Beltway_obs.Chrome_trace.write_file file
    (Beltway_obs.Chrome_trace.merge recorders);
  Printf.printf "trace written to %s\n%!" file;
  exit 0

(* ---- profiled sweep --------------------------------------------- *)

(* Demographics pass over the six benchmarks: each runs once at 4x its
   minimum-heap hint with the object profiler attached; all six land
   in one beltway-profile/1 file, one run object per benchmark, and
   the top allocation sites print per benchmark. Runs as a timed phase
   of the normal harness flow (the emitted results file points at the
   profile under "profile"). *)
let run_profile file =
  print_endline "== Profiled benchmark sweep (object demographics) ==";
  let config = cfg_of "25.25.100" in
  let runs =
    List.map
      (fun (bench : Beltway_workload.Spec.t) ->
        let heap_frames = max 8 (4 * bench.min_heap_hint_frames) in
        let result, profiler =
          Beltway_sim.Runner.run_profiled ~bench ~config ~heap_frames ()
        in
        Printf.printf "%-10s %5d frames  %4d collections%s\n" bench.name
          heap_frames
          (Beltway_obs.Profiler.collections profiler)
          (if result.Beltway_sim.Runner.completed then "" else "  [OOM]");
        Format.printf "  @[<v>%a@]@." (Beltway_obs.Profiler.report ~top:5)
          profiler;
        Beltway_obs.Profiler.run_json ~name:bench.name profiler)
      Beltway_workload.Spec.all
  in
  Beltway_obs.Profiler.write_file file runs;
  Printf.printf "profile written to %s\n%!" file

(* ---- baseline regression gate ----------------------------------- *)

let load_results file =
  let content =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  in
  match Json.of_string content with
  | j -> j
  | exception Json.Parse_error e ->
    Printf.eprintf "%s: parse error: %s\n" file e;
    exit 1

(* Diff a current results document against a prior one, section by
   section. Entries are matched by key (micro: name+policy; phases:
   phase+gc_domains; interpreter: name+engine); entries present only
   on one side are reported but never fail the gate — benchmarks come
   and go — and null metrics (a micro that failed to estimate) are
   skipped. Exit status: number of regressions, clamped to 1. *)
let run_baseline ?old_json ~old_file ~new_file () =
  (* [old_json] lets the entry point snapshot the baseline before the
     harness overwrites [results_file] — `--baseline BENCH_results.json`
     in the output directory must diff against the prior run, not the
     one just written. *)
  let old_json =
    match old_json with Some j -> j | None -> load_results old_file
  in
  let new_json = load_results new_file in
  let entries name j =
    match Option.bind (Json.member name j) Json.to_list with
    | Some l -> l
    | None -> []
  in
  let str name e = Option.bind (Json.member name e) Json.to_str in
  let num name e = Option.bind (Json.member name e) Json.to_float in
  (* Either side measured under the smoke quota? Then the numbers are
     noise (seconds-long sections, single-run bechamel estimates) and
     failing the gate on them would only teach people to ignore it:
     regressions are still reported, but the exit stays 0. *)
  let advisory =
    List.exists
      (fun j -> Json.member "smoke" j = Some (Json.Bool true))
      [ old_json; new_json ]
  in
  let compared = ref 0 and regressions = ref 0 and skipped = ref 0 in
  let check ~section ~key ~metric ~limit ~lower_better =
    let index = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match key e with
        | Some k -> Hashtbl.replace index k e
        | None -> ())
      (entries section new_json);
    List.iter
      (fun old_e ->
        match key old_e with
        | None -> ()
        | Some k -> (
          match Hashtbl.find_opt index k with
          | None ->
            incr skipped;
            Printf.printf "  skipped: %s %s missing from %s\n" section k
              new_file
          | Some new_e -> (
            match (num metric old_e, num metric new_e) with
            | Some o, Some n when o > 0.0 ->
              incr compared;
              let ratio = n /. o in
              let bad =
                if lower_better then ratio > limit else ratio < limit
              in
              if bad then begin
                incr regressions;
                Printf.printf
                  "  REGRESSION: %s %s %s %.4g -> %.4g (%.2fx, limit %.2fx)\n"
                  section k metric o n ratio limit
              end
            | _ -> incr skipped)))
      (entries section old_json)
  in
  Printf.printf "baseline check: %s vs %s\n" new_file old_file;
  check ~section:"micro"
    ~key:(fun e ->
      (* name + policy + strategy; pre-v6 entries carry no strategy
         and match a v6 row only if neither side names one, so a
         fixture whose strategy changes reads as a new benchmark
         rather than a false comparison. *)
      match (str "name" e, str "policy" e) with
      | Some n, Some p ->
        Some
          (n ^ "/" ^ p
          ^ match str "strategy" e with Some s -> "/" ^ s | None -> "")
      | Some n, None -> Some n
      | None, _ -> None)
    ~metric:"ns_per_run" ~limit:baseline_micro_max_ratio ~lower_better:true;
  check ~section:"phases"
    ~key:(fun e ->
      match str "phase" e with
      | Some p ->
        Some
          (match num "gc_domains" e with
          | Some d -> Printf.sprintf "%s/gc%d" p (int_of_float d)
          | None -> p)
      | None -> None)
    ~metric:"seconds" ~limit:baseline_phases_max_ratio ~lower_better:true;
  check ~section:"interpreter"
    ~key:(fun e ->
      match (str "name" e, str "engine" e) with
      | Some n, Some eng -> Some (n ^ "/" ^ eng)
      | _ -> None)
    ~metric:"ops_per_sec" ~limit:baseline_interp_min_ratio ~lower_better:false;
  Printf.printf "baseline: %d compared, %d skipped, %d regression(s)%s\n%!"
    !compared !skipped !regressions
    (if advisory && !regressions > 0 then " [advisory: smoke-quota timings]"
     else "");
  exit (if !regressions > 0 && not advisory then 1 else 0)

(* ---- entry point ------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let find_value flag args =
    let rec find = function
      | f :: v :: _ when String.equal f flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (match find_value "--validate" args with
  | Some file -> validate file
  | None -> ());
  (match find_value "--trace" args with
  | Some file -> run_trace file
  | None -> ());
  (* --baseline OLD --compare NEW is a pure two-file diff (no
     benchmarks run, cram-friendly); --baseline OLD alone runs the
     harness first and gates the fresh results file at the end. *)
  let baseline =
    match (find_value "--baseline" args, find_value "--compare" args) with
    | Some old_file, Some new_file ->
      run_baseline ~old_file ~new_file () (* exits *)
    | None, Some _ ->
      prerr_endline "error: --compare requires --baseline OLD.json";
      exit 2
    (* Snapshot now: the harness is about to overwrite [results_file],
       and the baseline may well be the previous run at that path. A
       missing file also fails here, before minutes of benching. *)
    | Some old_file, None -> Some (old_file, load_results old_file)
    | None, None -> None
  in
  (let rec find = function
     | "--jobs" :: n :: _ -> (
       match int_of_string_opt n with
       | Some n when n >= 1 -> Beltway_sim.Pool.set_default_jobs n
       | _ ->
         prerr_endline "error: --jobs expects a positive integer";
         exit 2)
     | _ :: rest -> find rest
     | [] -> ()
   in
   find args);
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let micro_only = List.mem "--micro-only" args in
  let figures_only = List.mem "--figures-only" args in
  let jobs = Beltway_sim.Pool.default_jobs () in
  let phases = ref [] in
  let timed phase f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    phases := !phases @ [ (phase, Unix.gettimeofday () -. t0, jobs) ];
    r
  in
  let micro =
    if figures_only then [] else timed "micro" (fun () -> run_micro ~smoke ())
  in
  let interpreter =
    if figures_only then []
    else timed "interpreter" (fun () -> run_interpreter ~smoke ())
  in
  let profile = find_value "--profile" args in
  (match profile with
  | Some file -> timed "profile" (fun () -> run_profile file)
  | None -> ());
  if (not micro_only) && not smoke then
    timed "figures" (fun () ->
        print_endline "== Paper evaluation: every table and figure ==";
        Printf.printf "(heap ladder: %d points per benchmark; --full for 33; %d jobs)\n\n"
          (List.length (Beltway_sim.Runner.multipliers ~full))
          jobs;
        Beltway_sim.Figures.run_all ~full);
  write_results ~smoke ~micro ~interpreter ~phases:!phases ~profile;
  match baseline with
  | Some (old_file, old_json) ->
    run_baseline ~old_json ~old_file ~new_file:results_file ()
  | None -> ()

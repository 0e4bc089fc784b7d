(* The benchmark's command line:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report, then, as the last line of standard
   output, one JSON object with the keys correct, attempted, failed and
   metrics: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1. A traced run also writes its spans as a Chrome
   trace_event file, perfbench/_out/WORKLOAD.trace.json under the
   working directory (open it in Perfetto). *)

open Perf

let print_metrics r =
  List.iter
    (fun m ->
      Printf.printf "  %-24s %14.6g %-8s %s\n" m.name m.value m.unit
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    r.metrics

(* The blocking steps of a traced pass as self times: a run's self time
   is its wall clock outside collections, a collection's is its pause
   outside phases. Each is summed from the hook events on its own, so
   the two accounting sums close only if the events partition the run
   (the same condition [measure] checks run by run). *)
let phase_rows =
  [ ("roots", "gc.roots.s"); ("remset drain", "gc.remset.s");
    ("card drain", "gc.cards.s"); ("cheney copy", "gc.cheney.s");
    ("mark", "gc.mark.s"); ("sweep", "gc.sweep.s");
    ("compact", "gc.compact.s"); ("frame free", "gc.free.s") ]

let print_self_times r =
  let v n = (find r n).value in
  let run_s = v "run_s.traced" in
  let row name s =
    Printf.printf "  %-22s %10.6f s %6.2f %%\n" name s (100. *. ratio s run_s)
  in
  print_endline "self times of the median traced pass (pass > run > collection > phase):";
  row "run (mutator)" (v "mutator.s");
  row "  collection (self)" (v "gc.self_s");
  List.iter (fun (label, n) -> row ("    " ^ label) (v n)) phase_rows;
  let phases = List.fold_left (fun a (_, n) -> a +. v n) 0. phase_rows in
  Printf.printf
    "accounting: mutator.s + gc.s = %.6f s vs traced run_s %.6f s (%+.3f %%); \
     gc.self_s + phases = %.6f s vs gc.s %.6f s\n"
    (v "mutator.s" +. v "gc.s") run_s
    (100. *. ratio (v "mutator.s" +. v "gc.s" -. run_s) run_s)
    (v "gc.self_s" +. phases) (v "gc.s");
  Printf.printf "trace.overhead: %.4f (traced / untraced run_s)\n" (v "trace.overhead")

let report r ~seed ~seconds =
  let n = Array.length (List.hd r.passes).outcomes in
  let count m = List.length (passes_of m r.passes) in
  Printf.printf "perfbench %s: seed %d, %g s, %d runs per pass, %d plain + %d %s passes\n"
    r.workload seed seconds n (count Plain)
    (count (if r.traced then Traced else Pauses))
    (if r.traced then "traced" else "pause");
  (* The host's speed: every time below is scaled to the speed at which
     the calibration kernel takes [cal_ref_ns]. *)
  let outcomes = List.concat_map (fun p -> Array.to_list p.outcomes) r.passes in
  let plain = passes_of Plain r.passes in
  let wall_s p = secs (sum_outcomes (fun o -> o.wall_ns) p.outcomes) in
  Printf.printf
    "host speed: calibration kernel median %.3f ms (reference %.3f ms); \
     plain pass median %.4f s wall clock, %.4f s at the reference speed\n"
    (median (List.map (fun o -> float_of_int o.cal_ns /. 1e6) outcomes))
    (float_of_int cal_ref_ns /. 1e6)
    (median (List.map wall_s plain))
    (median (List.map pass_s plain));
  if r.traced then print_self_times r
  else begin
    (* What installing any hook set costs: every alloc and write then
       walks the hook list. *)
    let med m = median (List.map pass_s (passes_of m r.passes)) in
    Printf.printf "hook cost: pause passes take %+.2f %% over plain passes (medians)\n"
      (100. *. (ratio (med Pauses) (med Plain) -. 1.))
  end;
  (* Each run's median time over the plain passes, so a change in
     run_s can be pinned to a mutator and configuration. *)
  print_endline "runs (median over plain passes):";
  List.iteri
    (fun i o ->
      Printf.printf "  %-42s %10.4f s%s\n" (def_label o.def)
        (median (List.map (fun p -> ref_s p.outcomes.(i) p.outcomes.(i).wall_ns) plain))
        (match o.failure with Some f -> "  (" ^ f ^ ")" | None -> ""))
    (Array.to_list (List.hd plain).outcomes);
  Printf.printf "%s metrics:\n" (if r.traced then "per-layer" else "end-to-end");
  print_metrics r;
  let failures =
    List.sort_uniq compare
      (List.concat_map
         (fun p ->
           List.filter_map
             (fun o ->
               Option.map (fun f -> def_label o.def ^ ": " ^ f) o.failure)
             (Array.to_list p.outcomes))
         r.passes)
  in
  List.iter (Printf.printf "failed run: %s\n") failures;
  List.iter (Printf.printf "CHECK FAILED: %s\n") r.problems

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME spec-tight | spec-inplace | beltlang-vm");
      ("--seed", Arg.Set_int seed, "N orders the runs within each pass");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (at least one pass of each kind)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) (workloads ()) with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced = !trace = 1 in
  let r = measure ~seed:!seed ~seconds:!seconds ~traced w in
  report r ~seed:!seed ~seconds:!seconds;
  if traced then begin
    (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
    let file = Printf.sprintf "perfbench/_out/%s.trace.json" w.name in
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Json.to_string (chrome_trace r)));
    Printf.printf "trace: %s (%d spans)\n" file (List.length r.spans)
  end;
  let names =
    if traced then List.map (fun (m : metric) -> m.name) r.metrics else json_end_to_end
  in
  print_endline (json_line r ~names)

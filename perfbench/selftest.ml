(* The benchmark's self-test: one tiny pass per workload through the
   same code as a real run.

     selftest.exe BENCHMARK.json

   checks that a plain run emits the eight end-to-end metrics and a
   traced run every per-layer metric, each with the unit BENCHMARK.json
   gives it, that the JSON line carries exactly the metrics
   BENCHMARK.json lists, and that a wrong expected output and an OOM are
   each counted as a failed run. Exits 1 on the first failed check. *)

open Perf

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let metric_units doc key =
  match Option.bind (Json.member key doc) Json.to_list with
  | None -> fail "BENCHMARK.json has no %s list" key
  | Some l ->
    List.map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.to_str,
               Option.bind (Json.member "unit" m) Json.to_str) with
        | Some n, Some u -> (n, u)
        | _ -> fail "malformed %s entry" key)
      l

(* The end-to-end metrics every workload reports, with their units. *)
let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("pause_p50_ms", "ms"); ("pause_p95_ms", "ms");
    ("sim_gc_time", "units"); ("sim_total_time", "units"); ("peak_rss_mb", "MB");
    ("failed_share", "ratio") ]

let tiny () =
  [ spec_tight ~mutators:[ Spec.raytrace; Spec.db ] ();
    spec_inplace ~mutators:[ Spec.raytrace; Spec.db ] ();
    beltlang_vm ~programs:[ Programs.gcbench; Programs.list_sort ] () ]

let run ~traced w = measure ~seed:1 ~seconds:0. ~traced w

let expect_metrics r wanted =
  List.iter
    (fun (name, unit) ->
      match List.find_opt (fun (m : metric) -> m.name = name) r.metrics with
      | None -> fail "%s: no metric %s" r.workload name
      | Some m when m.unit <> unit ->
        fail "%s: %s has unit %s, expected %s" r.workload name m.unit unit
      | Some m when Float.is_nan m.value -> fail "%s: %s is NaN" r.workload name
      | Some _ -> ())
    wanted

let expect_json_line r names =
  let line = json_line r ~names in
  let doc = try Json.of_string line with Json.Parse_error e -> fail "JSON line: %s" e in
  let keys = match doc with Json.Obj kv -> List.map fst kv | _ -> [] in
  if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
    fail "%s: JSON line keys %s" r.workload (String.concat "," keys);
  match Json.member "metrics" doc with
  | Some (Json.Obj kv) when List.map fst kv = names -> ()
  | _ -> fail "%s: JSON line metrics differ from BENCHMARK.json" r.workload

let () =
  let doc =
    try Json.of_string (In_channel.with_open_text Sys.argv.(1) In_channel.input_all)
    with Sys_error e | Json.Parse_error e -> fail "%s" e
  in
  let e2e = metric_units doc "end_to_end" and layer = metric_units doc "per_layer" in
  if List.map fst e2e <> json_end_to_end then
    fail "BENCHMARK.json end_to_end differs from the metrics the JSON line carries";
  List.iter
    (fun w ->
      let r = run ~traced:false w in
      if r.problems <> [] then fail "%s: %s" w.name (String.concat "; " r.problems);
      expect_metrics r (end_to_end @ e2e);
      expect_json_line r json_end_to_end;
      let t = run ~traced:true w in
      if t.problems <> [] then fail "%s: %s" w.name (String.concat "; " t.problems);
      expect_metrics t layer;
      if List.map (fun (m : metric) -> m.name) t.metrics <> List.map fst layer then
        fail "%s: traced metrics differ from BENCHMARK.json per_layer" w.name;
      expect_json_line t (List.map fst layer);
      if t.spans = [] then fail "%s: traced run recorded no spans" w.name;
      Printf.printf "selftest: %s ok (%d + %d metrics)\n" w.name
        (List.length r.metrics) (List.length t.metrics))
    (tiny ());
  (* A wrong expected output must count as a failed, incorrect run. *)
  let wrong = { Programs.gcbench with expected_output = Some "wrong\n" } in
  let r = run ~traced:false (beltlang_vm ~programs:[ wrong; Programs.list_sort ] ()) in
  let share = (find r "failed_share").value in
  if not (share > 0. && r.problems <> []) then
    fail "a wrong expected output left failed_share at %g" share;
  Printf.printf "selftest: wrong expected output -> failed_share %g, correct false\n" share;
  (* So must an OOM: every kept run is expected to complete. Half the
     minimum heap cannot hold raytrace's live data. *)
  let starved =
    spec_defs ~mutators:[ Spec.raytrace ] ~configs:[ ("25.25.100", Spec.all) ]
      ~multiplier:0.5 ()
  in
  let r = run ~traced:false { name = "starved"; defs = starved } in
  let share = (find r "failed_share").value in
  if not (share > 0. && r.problems <> []) then
    fail "an out-of-memory run left failed_share at %g" share;
  Printf.printf "selftest: out of memory -> failed_share %g, correct false\n" share

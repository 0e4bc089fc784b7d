(* beltlang: run a Beltlang program (from a file or the bundled suite)
   on a simulated heap under any Beltway collector configuration. *)

let sanitizer_level = function
  | None -> Beltway_check.Sanitizer.env_level ()
  | Some n -> (
    match Beltway_check.Sanitizer.level_of_int n with
    | Some l -> l
    | None ->
      Printf.eprintf "error: --sanitize takes 0, 1 or 2 (got %d)\n" n;
      exit 2)

let lint source =
  match Beltlang.Sexp.parse_string source with
  | exception Beltlang.Sexp.Parse_error e ->
    Printf.eprintf "syntax error: %s\n" e;
    exit 2
  | forms ->
    let diags = Beltlang.Analysis.analyze forms in
    List.iter (fun d -> Format.printf "%a@." Beltlang.Analysis.pp_diag d) diags;
    let errors = Beltlang.Analysis.errors diags in
    Format.printf "lint: %d error(s), %d warning(s)@." errors
      (Beltlang.Analysis.warnings diags);
    exit (if errors > 0 then 1 else 0)

let dump_bytecode source =
  match Beltlang.Sexp.parse_string source with
  | exception Beltlang.Sexp.Parse_error e ->
    Printf.eprintf "syntax error: %s\n" e;
    exit 2
  | forms -> (
    match Beltlang.Compile.compile (Beltlang.Ast.compile forms) with
    | exception Beltlang.Ast.Compile_error e ->
      Printf.eprintf "syntax error: %s\n" e;
      exit 2
    | bc ->
      Format.printf "%a@." Beltlang.Bytecode.pp bc;
      exit 0)

let run config_str heap_kb source_file builtin list_programs show_stats
    verify_heap sanitize lint_only trace metrics profile strategy vm_kind dump =
  if list_programs then begin
    List.iter
      (fun (p : Beltlang.Programs.t) ->
        Printf.printf "%-12s %s\n" p.name p.description)
      Beltlang.Programs.all;
    exit 0
  end;
  if strategy = Some "list" then begin
    List.iter
      (fun (i : Beltway.Strategy.info) ->
        Printf.printf "%-12s %s\n" i.Beltway.Strategy.key
          i.Beltway.Strategy.summary)
      Beltway.Strategy.infos;
    exit 0
  end;
  let config_str =
    match strategy with
    | Some name -> config_str ^ "+strategy:" ^ name
    | None -> config_str
  in
  match Beltway.Config.parse config_str with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 2
  | Ok config ->
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
    let source =
      match (builtin, source_file) with
      | Some name, _ -> (
        match Beltlang.Programs.by_name name with
        | Some p -> p.Beltlang.Programs.source
        | None ->
          Printf.eprintf "error: no bundled program %S (try --list)\n" name;
          exit 2)
      | None, Some file -> (
        try In_channel.with_open_text file In_channel.input_all
        with Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          exit 2)
      | None, None ->
        Printf.eprintf "error: give a FILE or --program NAME (see --list)\n";
        exit 2
    in
    if lint_only then lint source;
    if dump then dump_bytecode source;
    let gc = Beltway.Gc.create ~config ~heap_bytes:(heap_kb * 1024) () in
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
    (* Both engines share heap layout, output format, errors and GC
       behaviour; the bytecode VM is simply faster (see DESIGN.md). *)
    let run_engine, engine_output =
      match vm_kind with
      | `Bytecode ->
        let vm = Beltlang.Vm.create gc in
        ((fun src -> Beltlang.Vm.run_string vm src), fun () -> Beltlang.Vm.output vm)
      | `Ast ->
        let interp = Beltlang.Interp.create gc in
        ( (fun src -> Beltlang.Interp.run_string interp src),
          fun () -> Beltlang.Interp.output interp )
    in
    let status =
      try
        run_engine source;
        0
      with
      | Beltlang.Sexp.Parse_error e | Beltlang.Ast.Compile_error e ->
        Printf.eprintf "syntax error: %s\n" e;
        2
      | Beltlang.Interp.Runtime_error e ->
        Printf.eprintf "runtime error: %s\n" e;
        1
      | Beltway.Gc.Out_of_memory e ->
        Printf.eprintf "out of memory: %s\n" e;
        3
    in
    (match recorder with
    | None -> ()
    | Some r ->
      Beltway_obs.Recorder.detach r;
      Option.iter
        (fun f ->
          Beltway_obs.Chrome_trace.write_file f
            (Beltway_obs.Chrome_trace.to_json ~process_name:"beltlang" r))
        trace_file;
      Option.iter
        (fun f ->
          Beltway_obs.Chrome_trace.write_file f
            (Beltway_obs.Metrics.to_json (Beltway_obs.Recorder.metrics r)))
        metrics);
    (match (profiler, profile_file) with
    | Some p, Some f ->
      Beltway_obs.Profiler.detach p;
      Beltway_obs.Profiler.write_file f [ Beltway_obs.Profiler.run_json ~name:"beltlang" p ];
      (* stdout carries the program's own output; the report goes to
         stderr so profiled and unprofiled stdout stay identical *)
      Format.eprintf "%a@." (Beltway_obs.Profiler.report ~top:10) p
    | _ -> ());
    print_string (engine_output ());
    if show_stats then
      (* the summary header names the configuration and its policy *)
      Format.eprintf "[gc] %a@." Beltway.Gc_stats.pp_summary (Beltway.Gc.stats gc);
    (* Integrity reporting only makes sense for completed runs (an OOM
       can abort mid-collection, leaving forwarding pointers behind). *)
    if status = 0 then begin
      if verify_heap then begin
        match Beltway.Verify.check gc with
        | Ok () -> Format.printf "heap integrity: OK@."
        | Error e ->
          Format.printf "heap integrity: FAILED: %s@." e;
          exit 1
      end;
      if Beltway_check.Sanitizer.enabled san then begin
        Beltway_check.Sanitizer.check_now san;
        Format.printf "%a" Beltway_check.Sanitizer.report san;
        if not (Beltway_check.Sanitizer.ok san) then exit 1
      end
    end;
    exit status

open Cmdliner

let config_arg =
  let doc = "Collector configuration (as for beltway-run)." in
  Arg.(value & opt string "25.25.100" & info [ "g"; "gc" ] ~docv:"CONFIG" ~doc)

let heap_arg =
  let doc = "Heap size in KiB." in
  Arg.(value & opt int 512 & info [ "H"; "heap-kb" ] ~docv:"KB" ~doc)

let file_arg =
  let doc = "Beltlang source file." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let builtin_arg =
  let doc = "Run a bundled program instead of a file." in
  Arg.(value & opt (some string) None & info [ "p"; "program" ] ~docv:"NAME" ~doc)

let list_arg =
  let doc = "List bundled programs." in
  Arg.(value & flag & info [ "list" ] ~doc)

let stats_arg =
  let doc = "Print collector statistics to stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let verify_arg =
  let doc = "Run the full heap-integrity checker after the program completes." in
  Arg.(value & flag & info [ "verify" ] ~doc)

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

let lint_arg =
  let doc =
    "Static analysis only (no execution): scope and arity errors, \
     unreachable-code and unused-binding warnings, allocation-site \
     pretenuring notes. Exit 1 if any error is found."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let trace_arg =
  let doc =
    "Attach the GC flight recorder and write a Chrome trace_event JSON trace \
     to $(docv). Overrides $(b,BELTWAY_TRACE)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Attach the GC flight recorder and write a JSON metrics snapshot to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Attach the object-demographics profiler and write a beltway-profile/1 \
     JSON report to $(docv); bytecode allocation sites are labelled \
     $(i,lambda@pc:kind). The text report goes to stderr (stdout carries the \
     program's output). Overrides $(b,BELTWAY_PROFILE)."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let vm_arg =
  let doc =
    "Execution engine: $(b,bytecode) (flat-array compiler and tight dispatch \
     loop, the default) or $(b,ast) (the tree-walking reference interpreter). \
     Both produce identical output and identical GC statistics."
  in
  Arg.(
    value
    & opt (enum [ ("bytecode", `Bytecode); ("ast", `Ast) ]) `Bytecode
    & info [ "vm" ] ~docv:"ENGINE" ~doc)

let dump_arg =
  let doc = "Compile to bytecode, print the disassembly and exit." in
  Arg.(value & flag & info [ "dump-bytecode" ] ~doc)

let strategy_arg =
  let doc =
    "Select the reclamation strategy from the registry by $(docv) — copying \
     (default), marksweep or markcompact (shorthand for a +strategy:$(docv) \
     suffix on the configuration); $(b,--strategy list) prints the registry \
     and exits."
  in
  Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"NAME" ~doc)

let cmd =
  let doc = "run a Beltlang program on a Beltway-collected heap" in
  Cmd.v
    (Cmd.info "beltlang" ~doc)
    Term.(
      const run $ config_arg $ heap_arg $ file_arg $ builtin_arg $ list_arg
      $ stats_arg $ verify_arg $ sanitize_arg $ lint_arg $ trace_arg
      $ metrics_arg $ profile_arg $ strategy_arg $ vm_arg $ dump_arg)

let () = Cmd.eval cmd |> exit

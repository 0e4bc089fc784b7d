(* The benchmark's workloads, passes, hooks and metrics, shared by the
   command line ([bench.ml]) and the self-test ([selftest.ml]).

   A workload is a fixed list of runs (one mutator under one
   configuration on a fresh heap). A pass executes every run once, in
   an order drawn from the seed. A measurement alternates passes of two
   kinds until its time is up: plain passes (no hook set installed)
   give [run_s]; pause passes (collection start/end hooks only) give
   the pause percentiles; traced passes (collection and phase hooks)
   give the per-layer numbers and the spans. Every time is scaled to a
   reference host speed by a calibration kernel timed before each run
   (see [calibrate]). Every check runs outside the timed region. *)

open Beltway
module Spec = Beltway_workload.Spec
module Programs = Beltlang.Programs
module Json = Beltway_util.Json
module Vec = Beltway_util.Vec
module Stats_math = Beltway_util.Stats_math
module Runner = Beltway_sim.Runner
module Cost_model = Beltway_sim.Cost_model

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* ---- workloads ---------------------------------------------------- *)

(* Minimum heap of each mutator in frames, from [Runner.min_heap_frames]
   (the Appel comparator) at the commit that introduced this benchmark.
   Pinned so that no run pays the ~19 s search. *)
let min_heap_frames =
  [ ("jess", 97); ("raytrace", 87); ("db", 131); ("javac", 133);
    ("jack", 55); ("pseudojbb", 249) ]

let tight_multiplier = 1.25
let inplace_multiplier = 3.0

(* A mutator's allocation schedule does not depend on the collector, so
   every completed run of it allocates exactly these words. *)
let spec_words =
  [ ("jess", 3_700_097); ("raytrace", 1_600_082); ("db", 1_300_003);
    ("javac", 3_294_645); ("jack", 4_000_648); ("pseudojbb", 4_137_542) ]

(* The beltlang CLI's default heap. *)
let vm_heap_bytes = 512 * 1024

type program = Spec_mutator of Spec.t | Vm_program of Programs.t

type def = {
  mutator : string;
  config_label : string;
  config : Config.t;
  heap_bytes : int;
  program : program;
}

type workload = { name : string; defs : def list }

let def_label d = d.mutator ^ "@" ^ d.config_label

let parse_config label =
  match Config.parse label with Ok c -> c | Error e -> invalid_arg e

(* [configs] pairs a configuration with the mutators run under it;
   [mutators] narrows every list (the self-test's tiny passes). *)
let spec_defs ?mutators ~configs ~multiplier () =
  let keep m = match mutators with None -> true | Some l -> List.memq m l in
  List.concat_map
    (fun (label, ms) ->
      let config = parse_config label in
      List.map
        (fun (m : Spec.t) ->
          let min = float_of_int (List.assoc m.name min_heap_frames) in
          let frames = Float.to_int (Float.round (multiplier *. min)) in
          { mutator = m.name; config_label = label; config;
            heap_bytes = frames * Runner.frame_bytes; program = Spec_mutator m })
        (List.filter keep ms))
    configs

let spec_tight ?mutators () =
  { name = "spec-tight";
    defs = spec_defs ?mutators ~configs:[ ("25.25.100", Spec.all) ]
        ~multiplier:tight_multiplier () }

(* Mark-sweep runs only the mutators whose run takes well under a
   second. Under it jess, jack and pseudojbb take 10, 4 and 2.4 s and
   javac 16 s before it runs out of memory: one 30 s pass, which would
   leave a run a single pass of each kind and its numbers at the mercy
   of the host's speed in that one window. *)
let spec_inplace ?mutators () =
  { name = "spec-inplace";
    defs =
      spec_defs ?mutators
        ~configs:
          [ ("25.25.100+strategy:marksweep", [ Spec.raytrace; Spec.db ]);
            ("25.25.100+strategy:markcompact", Spec.all) ]
        ~multiplier:inplace_multiplier () }

let beltlang_vm ?(programs = Programs.all) () =
  let label = "25.25.100" in
  let config = parse_config label in
  { name = "beltlang-vm";
    defs =
      List.map
        (fun (p : Programs.t) ->
          { mutator = p.name; config_label = label; config;
            heap_bytes = vm_heap_bytes; program = Vm_program p })
        programs }

let workloads () = [ spec_tight (); spec_inplace (); beltlang_vm () ]

(* ---- set-up ----------------------------------------------------- *)

type job = { def : def; gc : Gc.t; vm : Beltlang.Vm.t option; go : unit -> unit }

let compile (p : Programs.t) =
  Beltlang.Compile.compile (Beltlang.Ast.compile (Beltlang.Sexp.parse_string p.source))

(* Compile every Beltlang program of the workload, then build one fresh
   heap (and VM, which registers the language's types) per run.
   Returns the jobs in definition order and the compile time. *)
let setup w =
  let t0 = now_ns () in
  let compiled =
    List.filter_map
      (fun d ->
        match d.program with
        | Vm_program p -> Some (p.name, compile p)
        | Spec_mutator _ -> None)
      w.defs
  in
  let compile_ns = now_ns () - t0 in
  let job d =
    let gc =
      Gc.create ~frame_log_words:Runner.frame_log_words ~gc_domains:1
        ~config:d.config ~heap_bytes:d.heap_bytes ()
    in
    match d.program with
    | Spec_mutator m -> { def = d; gc; vm = None; go = (fun () -> m.run gc) }
    | Vm_program p ->
      let vm = Beltlang.Vm.create gc in
      let bc = List.assoc p.name compiled in
      { def = d; gc; vm = Some vm; go = (fun () -> Beltlang.Vm.run_compiled vm bc) }
  in
  (Array.of_list (List.map job w.defs), compile_ns)

(* ---- host speed --------------------------------------------------- *)

(* The host is shared, and its speed moves between levels up to 1.5x
   apart that last from a fraction of a second to minutes; pure CPU
   loops show it too. So every time the benchmark reports is scaled by
   a calibration: a fixed kernel of this file, which no change to the
   program under test can speed up or slow down, timed right before
   each run and each set-up. A time [t] measured after a kernel time
   [k] is reported as [t * cal_ref_ns / k]: seconds at the host speed
   at which the kernel took [cal_ref_ns]. The kernel does what the runs
   spend their time on: small allocations, recursive calls and pointer
   chasing, here through short-lived trees and a 1 MB tree on the major
   heap. Of the kernels tried (random read-modify-writes over a 4 MB
   Bigarray, integer loops, these two) they tracked the runs' speed
   best. The short-lived trees die young, so the kernel adds almost no
   major-heap work that could depend on what the runs leave behind. *)

type tree = Leaf | Node of tree * int * tree

let rec build d k =
  if d = 0 then Leaf else Node (build (d - 1) (2 * k), k, build (d - 1) ((2 * k) + 1))

let rec tree_sum = function Leaf -> 0 | Node (l, k, r) -> tree_sum l + k + tree_sum r
let cal_tree = lazy (build 15 1)

let kernel () =
  let tree = Lazy.force cal_tree in
  let s = ref 0 in
  for _ = 1 to 2 do
    for k = 1 to 64 do s := !s + tree_sum (build 10 k) done;
    s := !s + tree_sum tree
  done;
  !s

(* The kernel's usual time on a 2-vCPU shared Xeon VM. *)
let cal_ref_ns = 2_200_000

let calibrate () =
  ignore (Lazy.force cal_tree);
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  max 1 (now_ns () - t0)

(* [ns] measured after a kernel time [cal], in reference nanoseconds. *)
let at_ref ~cal ns = float_of_int ns *. float_of_int cal_ref_ns /. float_of_int cal

(* ---- hooks -------------------------------------------------------- *)

type mode = Plain | Pauses | Traced

let mode_name = function Plain -> "plain" | Pauses -> "pause" | Traced -> "traced"

let phases = Array.of_list Gc_stats.all_phases
let nphases = Array.length phases

let phase_index p =
  let rec go i = if phases.(i) = p then i else go (i + 1) in
  go 0

(* Events are (code, monotonic ns) pairs in two int vectors, so a hook
   allocates nothing on the OCaml heap unless a vector grows. Codes:
   [collect_start], [collect_end], [2p] entering phase [p], [2p+1]
   leaving it. *)
let collect_start = -1
let collect_end = -2

type events = { codes : int Vec.t; times : int Vec.t }

let record ev code =
  Vec.push ev.codes code;
  Vec.push ev.times (now_ns ())

let hooks ev ~phases =
  let h =
    { State.noop_hooks with
      on_collect_start = (fun ~reason:_ ~emergency:_ -> record ev collect_start);
      on_collect_end = (fun ~full_heap:_ -> record ev collect_end) }
  in
  if phases then
    { h with
      on_gc_phase =
        (fun ~phase ~enter ->
          record ev ((2 * phase_index phase) + if enter then 0 else 1)) }
  else h

(* ---- one run ------------------------------------------------------ *)

(* What the metrics need from a run's [Gc_stats], the collection log
   summed, so that passes do not keep logs alive and the benchmark's
   own footprint does not grow with the number of passes. *)
type counts = {
  gcs : int;
  words : int;
  objects : int;
  frames_granted : int;
  peak_frames : int;
  barrier_ops : int;
  barrier_slow : int;
  barrier_filtered : int;
  emergencies : int;
  full_heaps : int;
  plan_words : int;
  roots : int;
  remset : int;
  copied : int;
  scanned : int;
  marked : int;
  swept : int;
  moved : int;
  freed : int;
  sim_gc : float;
  sim_total : float;
}

let counts_of (s : Gc_stats.t) =
  let sum f = Vec.fold (fun a c -> a + f c) 0 s.collections in
  { gcs = Gc_stats.gcs s; words = s.words_allocated; objects = s.objects_allocated;
    frames_granted = s.frames_allocated; peak_frames = s.peak_frames;
    barrier_ops = s.barrier_ops; barrier_slow = s.barrier_slow;
    barrier_filtered = s.barrier_filtered;
    emergencies = sum (fun c -> Bool.to_int c.emergency);
    full_heaps = sum (fun c -> Bool.to_int c.full_heap);
    plan_words = sum (fun c -> c.plan_words); roots = sum (fun c -> c.roots_scanned);
    remset = sum (fun c -> c.remset_slots); copied = sum (fun c -> c.copied_words);
    scanned = sum (fun c -> c.scanned_slots); marked = sum (fun c -> c.marked_words);
    swept = sum (fun c -> c.swept_words); moved = sum (fun c -> c.moved_words);
    freed = sum (fun c -> c.freed_frames);
    sim_gc = Cost_model.gc_time Cost_model.default s;
    sim_total = Cost_model.total_time Cost_model.default s }

type outcome = {
  def : def;
  wall_ns : int;
  mutator_ns : int;  (** outside collections: head, gaps and tail of the run *)
  gc_ns : int;  (** inside collections, an aborted one included *)
  self_ns : int;  (** inside a collection with no phase open *)
  phase_ns : int array;  (** per [phases] entry *)
  pauses_ns : int array;  (** completed collections *)
  failure : string option;  (** OOM, runtime error, rejected heap, wrong output *)
  counts : counts;
  insns : int;
  cal_ns : int;  (** the calibration kernel's time right before the run *)
}

(* Chrome trace_event spans of the traced passes, kept in memory until
   the run ends. Timestamps are microseconds since [epoch]. *)
type spans = { epoch : int; mutable events : Json.t list }

let span sp ~name ~cat ~t0 ~t1 ~run =
  let us ns = Json.Num (float_of_int (ns - sp.epoch) /. 1e3) in
  sp.events <-
    Json.Obj
      [ ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "X");
        ("ts", us t0); ("dur", Json.Num (float_of_int (t1 - t0) /. 1e3));
        ("pid", Json.Num 1.); ("tid", Json.Num 1.);
        ("args", Json.Obj [ ("run", Json.Num (float_of_int run)) ]) ]
    :: sp.events

let collection_name stats k =
  let log = stats.Gc_stats.collections in
  if k < Vec.length log then "gc:" ^ Gc_stats.collection_label (Vec.get log k)
  else "gc:aborted"

let run_job ~mode ~spans ~run_id ~cal (job : job) =
  let ev = { codes = Vec.create ~dummy:0 (); times = Vec.create ~dummy:0 () } in
  let h =
    match mode with
    | Plain -> None
    | Pauses -> Some (hooks ev ~phases:false)
    | Traced -> Some (hooks ev ~phases:true)
  in
  let st = Gc.state job.gc in
  Option.iter (State.add_hooks st) h;
  let t0 = now_ns () in
  let error =
    try job.go (); None with
    | Gc.Out_of_memory _ -> Some "out of memory"
    | Beltlang.Vm.Runtime_error e -> Some ("runtime error: " ^ e)
  in
  let t1 = now_ns () in
  Option.iter (State.remove_hooks st) h;
  let stats = Gc.stats job.gc in
  let check =
    match (error, Verify.check job.gc) with
    | Some e, _ -> Some e
    | None, Error e -> Some ("heap rejected: " ^ e)
    | None, Ok () -> (
      match job.def.program with
      | Vm_program p ->
        if Option.map Beltlang.Vm.output job.vm = p.expected_output then None
        else Some "wrong output"
      | Spec_mutator m ->
        let words = Gc.words_allocated job.gc in
        if words = List.assoc m.name spec_words then None
        else Some (Printf.sprintf "allocated %d words" words))
  in
  (* Each sum is taken from the events on its own: the time since the
     previous event goes to the mutator outside a collection and to the
     collection's self time inside one with no phase open, while the
     pause and phase totals run from each start to its end. So
     mutator + gc closes on the run's wall clock, and self + phases on
     gc, only if the events partition the run: collections that neither
     overlap nor leave the run, phases that neither nest nor leave their
     collection. *)
  let gc_ns = ref 0 and mutator_ns = ref 0 and self_ns = ref 0 in
  let pauses = Vec.create ~dummy:0 () in
  let phase_ns = Array.make nphases 0 in
  let opened = Array.make nphases (-1) in
  let cstart = ref (-1) and ncoll = ref 0 and depth = ref 0 and last = ref t0 in
  let advance t =
    if !cstart < 0 then mutator_ns := !mutator_ns + (t - !last)
    else if !depth = 0 then self_ns := !self_ns + (t - !last);
    last := t
  in
  let close_phase p t =
    decr depth;
    phase_ns.(p) <- phase_ns.(p) + (t - opened.(p));
    Option.iter
      (fun sp ->
        span sp ~name:(Gc_stats.phase_to_string phases.(p)) ~cat:"phase"
          ~t0:opened.(p) ~t1:t ~run:run_id)
      spans;
    opened.(p) <- -1
  in
  let close_collection ~name t =
    gc_ns := !gc_ns + (t - !cstart);
    Option.iter
      (fun sp -> span sp ~name ~cat:"collection" ~t0:!cstart ~t1:t ~run:run_id)
      spans;
    cstart := -1
  in
  for i = 0 to Vec.length ev.codes - 1 do
    let c = Vec.get ev.codes i and t = Vec.get ev.times i in
    advance t;
    if c = collect_start then cstart := t
    else if c = collect_end then begin
      Vec.push pauses (t - !cstart);
      close_collection ~name:(collection_name stats !ncoll) t;
      incr ncoll
    end
    else if c land 1 = 0 then (incr depth; opened.(c / 2) <- t)
    else close_phase (c / 2) t
  done;
  advance t1;
  (* An OOM raised mid-collection leaves its spans open: they end with
     the run. *)
  Array.iteri (fun p o -> if o >= 0 then close_phase p t1) opened;
  if !cstart >= 0 then close_collection ~name:"gc:aborted" t1;
  Option.iter
    (fun sp -> span sp ~name:(def_label job.def) ~cat:"run" ~t0 ~t1 ~run:run_id)
    spans;
  { def = job.def; wall_ns = t1 - t0; mutator_ns = !mutator_ns; gc_ns = !gc_ns;
    self_ns = !self_ns; phase_ns; pauses_ns = Vec.to_array pauses; failure = check;
    counts = counts_of stats;
    insns = (match job.vm with Some vm -> Beltlang.Vm.instructions vm | None -> 0);
    cal_ns = cal }

(* ---- passes ------------------------------------------------------- *)

type pass = { mode : mode; outcomes : outcome array (* definition order *) }

(* In reference seconds (see [calibrate]): a time of a run at the
   host speed of the kernel timed just before it, and such times summed
   over a pass's runs. *)
let ref_s o ns = at_ref ~cal:o.cal_ns ns *. 1e-9
let sum_ref_s f p = Array.fold_left (fun a o -> a +. ref_s o (f o)) 0. p.outcomes
let pass_s = sum_ref_s (fun o -> o.wall_ns)
let passes_of mode passes = List.filter (fun p -> p.mode = mode) passes

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let run_pass ~mode ~order ~spans ~first_run jobs =
  let t0 = now_ns () in
  let outcomes = Array.make (Array.length jobs) None in
  Array.iteri
    (fun k i ->
      let cal = calibrate () in
      outcomes.(i) <- Some (run_job ~mode ~spans ~run_id:(first_run + k) ~cal jobs.(i)))
    order;
  Option.iter
    (fun sp ->
      span sp ~name:("pass:" ^ mode_name mode) ~cat:"pass" ~t0 ~t1:(now_ns ())
        ~run:first_run)
    spans;
  { mode; outcomes = Array.map Option.get outcomes }

(* ---- statistics --------------------------------------------------- *)

(* [p] in 0-100; 0 for no samples (a pass without collections). *)
let percentile a p = if a = [||] then 0. else Stats_math.percentile a p
let median l = percentile (Array.of_list l) 50.

let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

(* ---- measurement -------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; note : string }

type result = {
  workload : string;
  traced : bool;
  passes : pass list;
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks; empty when correct *)
  spans : Json.t list;
}

let sum_outcomes f outcomes = Array.fold_left (fun a o -> a + f o) 0 outcomes

let fsum f p = float_of_int (sum_outcomes (fun o -> f o.counts) p.outcomes)
let sim f p = Array.fold_left (fun a o -> a +. f o.counts) 0. p.outcomes

(* The per-layer numbers of one traced pass. *)
let layer_metrics p =
  let phase ph = sum_ref_s (fun o -> o.phase_ns.(phase_index ph)) p in
  let run_s = pass_s p in
  let gc_s = sum_ref_s (fun o -> o.gc_ns) p in
  let mutator_s = sum_ref_s (fun o -> o.mutator_ns) p in
  let words = fsum (fun c -> c.words) p in
  let insns = float_of_int (sum_outcomes (fun o -> o.insns) p.outcomes) in
  let count = fsum (fun c -> c.gcs) p in
  let per ~unit name t n = (name, ratio (t *. 1e9) n, unit) in
  let roots = fsum (fun c -> c.roots) p
  and remset = fsum (fun c -> c.remset) p
  and copied = fsum (fun c -> c.copied) p
  and marked = fsum (fun c -> c.marked) p
  and swept = fsum (fun c -> c.swept) p
  and moved = fsum (fun c -> c.moved) p in
  let open Gc_stats in
  [ ("run_s.traced", run_s, "s");
    ("mutator.s", mutator_s, "s");
    per ~unit:"ns/word" "mutator.ns_per_word" mutator_s words;
    ("alloc.objects", fsum (fun c -> c.objects) p, "count");
    ("alloc.words", words, "words");
    ("alloc.frames_granted", fsum (fun c -> c.frames_granted) p, "frames");
    ("barrier.ops", fsum (fun c -> c.barrier_ops) p, "count");
    ("barrier.slow", fsum (fun c -> c.barrier_slow) p, "count");
    ( "barrier.filtered_share",
      ratio (fsum (fun c -> c.barrier_filtered) p) (fsum (fun c -> c.barrier_ops) p),
      "ratio" );
    ("vm.insns", insns, "count");
    per ~unit:"ns/insn" "vm.ns_per_insn" mutator_s insns;
    ("gc.count", count, "count");
    ("gc.s", gc_s, "s");
    ("gc.self_s", sum_ref_s (fun o -> o.self_ns) p, "s");
    ("gc.emergency_share", ratio (fsum (fun c -> c.emergencies) p) count, "ratio");
    ("gc.full_heap_share", ratio (fsum (fun c -> c.full_heaps) p) count, "ratio");
    ("gc.survival", ratio (copied +. marked) (fsum (fun c -> c.plan_words) p), "ratio");
    ("gc.roots.s", phase Phase_roots, "s");
    ("gc.roots.slots", roots, "slots");
    per ~unit:"ns/slot" "gc.roots.ns_per_slot" (phase Phase_roots) roots;
    ("gc.remset.s", phase Phase_remset, "s");
    ("gc.remset.slots", remset, "slots");
    per ~unit:"ns/slot" "gc.remset.ns_per_slot" (phase Phase_remset) remset;
    ("gc.cards.s", phase Phase_cards, "s");
    ("gc.cheney.s", phase Phase_cheney, "s");
    ("gc.cheney.copied_words", copied, "words");
    ("gc.cheney.scanned_slots", fsum (fun c -> c.scanned) p, "slots");
    per ~unit:"ns/word" "gc.cheney.ns_per_word" (phase Phase_cheney) copied;
    ("gc.mark.s", phase Phase_mark, "s");
    ("gc.mark.words", marked, "words");
    per ~unit:"ns/word" "gc.mark.ns_per_word" (phase Phase_mark) marked;
    ("gc.sweep.s", phase Phase_sweep, "s");
    ("gc.sweep.words", swept, "words");
    per ~unit:"ns/word" "gc.sweep.ns_per_word" (phase Phase_sweep) swept;
    ("gc.compact.s", phase Phase_compact, "s");
    ("gc.compact.moved_words", moved, "words");
    per ~unit:"ns/word" "gc.compact.ns_per_word" (phase Phase_compact) moved;
    ("gc.free.s", phase Phase_free, "s");
    ("gc.free.frames", fsum (fun c -> c.freed) p, "frames");
    ( "heap.peak_frames",
      float_of_int (Array.fold_left (fun a o -> max a o.counts.peak_frames) 0 p.outcomes),
      "frames" );
    ("sim_gc_time", sim (fun c -> c.sim_gc) p, "units");
    ("sim_total_time", sim (fun c -> c.sim_total) p, "units") ]

(* The hooked passes' accounting must close on every run (see
   [run_job]): mutator + gc on the run's wall clock and, in a traced
   pass, gc self + phases on gc. *)
let accounting_problems passes =
  List.concat_map
    (fun p ->
      if p.mode = Plain then []
      else
        List.filter_map
          (fun o ->
            let phases = Array.fold_left ( + ) 0 o.phase_ns in
            if o.mutator_ns + o.gc_ns <> o.wall_ns then
              Some (Printf.sprintf "%s: mutator %d + gc %d ns <> run %d ns"
                      (def_label o.def) o.mutator_ns o.gc_ns o.wall_ns)
            else if p.mode = Traced && o.self_ns + phases <> o.gc_ns then
              Some (Printf.sprintf "%s: gc self %d + phases %d ns <> gc %d ns"
                      (def_label o.def) o.self_ns phases o.gc_ns)
            else None)
          (Array.to_list p.outcomes))
    passes

(* Checks across passes: the collector is deterministic and hooks only
   observe, so every pass must reproduce each run's statistics. *)
let cross_pass_problems passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun p ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i o ->
                  let o0 = first.outcomes.(i) in
                  let key o = (o.counts, o.failure) in
                  if key o = key o0 then None
                  else
                    Some
                      (Printf.sprintf "%s: %s pass differs from the first pass"
                         (def_label o.def) (mode_name p.mode)))
                p.outcomes)))
      rest

(* Every pass runs on heaps of its own, built by one set-up after a full
   major OCaml collection, and each of those set-ups is timed. So the
   set-up samples are spread over the measurement like the passes, not
   bunched at its start, where the host's speed of one moment would set
   them all, and timing them adds no work and no garbage of its own. *)
let measure ~seed ~seconds ~traced w =
  let rng = Random.State.make [| seed |] in
  let samples = ref [] in
  Stdlib.Gc.full_major ();
  let sp = if traced then Some { epoch = now_ns (); events = [] } else None in
  let n = List.length w.defs in
  let passes = ref [] and runs = ref 0 in
  let one mode =
    let cal = calibrate () in
    let t0 = now_ns () in
    let jobs, compile_ns = setup w in
    let t1 = now_ns () in
    samples := (at_ref ~cal (t1 - t0) *. 1e-9, at_ref ~cal compile_ns *. 1e-9) :: !samples;
    let order = shuffle rng n in
    (* Spans of the first traced pass only: enough to see the nesting,
       and later passes are not slowed by a growing OCaml heap. *)
    let spans = if mode = Traced && !runs < 2 * n then sp else None in
    let p = run_pass ~mode ~order ~spans ~first_run:!runs jobs in
    runs := !runs + n;
    Stdlib.Gc.full_major ();
    passes := p :: !passes
  in
  let deadline = now_ns () + Float.to_int (seconds *. 1e9) in
  let second = if traced then Traced else Pauses in
  let rec loop () =
    one Plain;
    one second;
    if now_ns () < deadline then loop ()
  in
  loop ();
  let passes = List.rev !passes in
  let setup_s = median (List.map fst !samples) in
  let compile_s = median (List.map snd !samples) in
  let setup_note =
    Printf.sprintf "median of %d set-ups, one before each pass" (List.length !samples)
  in
  let of_mode m = passes_of m passes in
  let all = List.concat_map (fun p -> Array.to_list p.outcomes) passes in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun o -> o.failure <> None) all) in
  (* Every kept run is expected to complete, so any failure, an OOM
     included, makes the result incorrect. *)
  let problems =
    List.filter_map
      (fun o -> Option.map (Printf.sprintf "%s: %s" (def_label o.def)) o.failure)
      all
    @ accounting_problems passes @ cross_pass_problems passes
  in
  let plain = of_mode Plain in
  let run_s = median (List.map pass_s plain) in
  let nplain = List.length plain in
  let failed_share = ratio (float_of_int failed) (float_of_int attempted) in
  let first = List.hd passes in
  let m ?(note = "") name value unit = { name; value; unit; note } in
  let metrics =
    if not traced then begin
      let pauses = of_mode Pauses in
      let pauses_ms =
        Array.concat
          (List.concat_map
             (fun p ->
               Array.to_list
                 (Array.map
                    (fun o -> Array.map (fun ns -> ref_s o ns *. 1e3) o.pauses_ns)
                    p.outcomes))
             pauses)
      in
      let np = Array.length pauses_ms in
      let pause_note q =
        Printf.sprintf "%d pauses over %d passes, %d beyond" np (List.length pauses)
          (np - Float.to_int (Float.ceil (q *. float_of_int np)))
      in
      [ m "setup_s" setup_s "s" ~note:setup_note;
        m "run_s" run_s "s" ~note:(Printf.sprintf "median of %d passes" nplain);
        m "pause_p50_ms" (percentile pauses_ms 50.) "ms" ~note:(pause_note 0.5);
        m "pause_p95_ms" (percentile pauses_ms 95.) "ms" ~note:(pause_note 0.95);
        m "sim_gc_time" (sim (fun c -> c.sim_gc) first) "units" ~note:"Cost_model.default";
        m "sim_total_time" (sim (fun c -> c.sim_total) first) "units"
          ~note:"Cost_model.default";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ~note:"VmHWM";
        m "failed_share" failed_share "ratio"
          ~note:(Printf.sprintf "%d of %d runs" failed attempted) ]
    end
    else begin
      (* Every per-layer number comes from one pass, the median by
         wall clock, so the sums printed for it are sums of one pass. *)
      let traced =
        List.sort (fun a b -> compare (pass_s a) (pass_s b)) (of_mode Traced)
      in
      let mid = List.nth traced ((List.length traced - 1) / 2) in
      let layer = List.map (fun (name, v, unit) -> m name v unit) (layer_metrics mid) in
      let traced_s = pass_s mid in
      layer
      @ [ m "compile.s" compile_s "s" ~note:setup_note;
          m "trace.overhead" (ratio traced_s run_s) "ratio"
            ~note:(Printf.sprintf "median traced pass / median of %d untraced"
                     nplain);
          m "failed_share" failed_share "ratio"
            ~note:(Printf.sprintf "%d of %d runs" failed attempted) ]
    end
  in
  { workload = w.name; traced; passes; metrics; attempted;
    failed; problems;
    spans = (match sp with Some s -> List.rev s.events | None -> []) }

(* ---- output ------------------------------------------------------- *)

(* The end-to-end metrics the JSON line carries. The report prints all
   eight; failed_share is zero on every workload and the sim_* figures
   are deterministic, so a relative bound fits none of those three:
   they travel in the per-layer set, and the JSON's attempted/failed
   carry the failure count. *)
let json_end_to_end = [ "setup_s"; "run_s"; "pause_p50_ms"; "pause_p95_ms"; "peak_rss_mb" ]

let find r name = List.find (fun m -> m.name = name) r.metrics

let json_line r ~names =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.problems = []));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun n ->
                  let m = find r n in
                  (n, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
                names) ) ])

let chrome_trace r =
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (Json.Obj
          [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M");
            ("pid", Json.Num 1.); ("tid", Json.Num 1.);
            ("args", Json.Obj [ ("name", Json.Str r.workload) ]) ]
        :: r.spans) );
      ("displayTimeUnit", Json.Str "ms") ]

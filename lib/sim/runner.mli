(** Experiment execution: single runs, minimum-heap search, and
    heap-size sweeps.

    The paper's protocol: for each benchmark, find the minimum heap
    size in which the Appel-style collector completes (Table 1), then
    run every collector at a ladder of heap sizes from 1x to 3x that
    minimum (they use 33 sizes; [multipliers] defaults to 9 and the
    harness's [--full] flag restores 33). A configuration failing at a
    heap size ([completed = false]) appears as a missing point,
    exactly like the truncated curves in Figures 6 and 10. *)

type result = {
  bench : string;
  config : string;
  heap_frames : int;
  heap_bytes : int;
  completed : bool;
  oom_reason : string option;
  stats : Beltway.Gc_stats.t;
  gc_time : float;
  mutator_time : float;
  total_time : float;
}

val frame_log_words : int
(** Frame granularity used throughout the harness (10: 4 KiB
    frames). *)

val frame_bytes : int
(** Bytes per frame at that granularity. *)

val run_one :
  ?model:Cost_model.t ->
  bench:Beltway_workload.Spec.t ->
  config:Config.t ->
  heap_frames:int ->
  unit ->
  result
(** One run of the benchmark at [heap_frames]; an [Out_of_memory] ends
    it as not completed. *)

val run_traced :
  ?model:Cost_model.t ->
  ?capacity:int ->
  bench:Beltway_workload.Spec.t ->
  config:Config.t ->
  heap_frames:int ->
  unit ->
  result * Beltway_obs.Recorder.t
(** [run_one] with a flight recorder attached for the duration of the
    workload ([capacity] = event-ring size). The recorder is detached
    before returning; export it with [Beltway_obs.Chrome_trace] /
    [Beltway_obs.Metrics.to_json]. *)

val run_profiled :
  ?model:Cost_model.t ->
  bench:Beltway_workload.Spec.t ->
  config:Config.t ->
  heap_frames:int ->
  unit ->
  result * Beltway_obs.Profiler.t
(** [run_one] with the object-demographics profiler attached for the
    duration of the workload; detached before returning, so its
    accumulated data is stable. Export with
    [Beltway_obs.Profiler.run_json]. *)

val crosscheck_mmu :
  ?model:Cost_model.t -> result -> Beltway_obs.Recorder.t -> Mmu.drift
(** Compare the cost-model pause timeline reconstructed from
    [result.stats] against the recorder's wall-clock pause log (see
    {!Mmu.crosscheck}). *)

val min_heap_frames :
  ?config:Config.t -> Beltway_workload.Spec.t -> int
(** Smallest frame count at which the benchmark completes (binary
    search; [config] defaults to the Appel comparator, as in
    Table 1). Results are memoised per (benchmark, config label). *)

val prewarm_min_heaps :
  ?config:Config.t -> Beltway_workload.Spec.t list -> unit
(** Run the not-yet-memoised minimum-heap searches for [benches]
    concurrently on the default {!Pool} (each search is sequential
    internally — every probe depends on the last — but searches for
    different benchmarks are independent). Subsequent
    {!min_heap_frames} calls are cache hits. *)

val multipliers : full:bool -> float list
(** The heap-size ladder: 9 points (or 33 with [full]) from 1.0 to
    3.0, geometrically spaced. *)

val heap_ladder : min_frames:int -> mults:float list -> int list

val sweep :
  ?model:Cost_model.t ->
  ?pool:Pool.t ->
  bench:Beltway_workload.Spec.t ->
  config:Config.t ->
  heaps:int list ->
  unit ->
  result list
(** Run the benchmark at every heap size in [heaps], in parallel on
    [pool] (default: the shared {!Pool.default}). Results are in
    [heaps] order and independent of the job count: each run builds its
    own [Gc.t]. *)

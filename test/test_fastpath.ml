(* The allocation and write fast paths must be invisible: [Gc.alloc]
   and [Gc.write] take an inline common case first and fall back to the
   full path, and the composition must count, collect and fail exactly
   as the full path alone did. *)

open Beltway_workload
module Gc = Beltway.Gc
module Gc_stats = Beltway.Gc_stats

let checki = Alcotest.(check int)

(* ---- golden statistics ---------------------------------------------- *)

(* Frames are [Runner.frame_bytes] (4 KiB) frames; each mutator's
   minimum heap is the one [perfbench] pins (jess 97, raytrace 87, db
   131, javac 133, jack 55, pseudojbb 249 frames). The first three
   blocks were recorded before [Gc.alloc] and [Gc.write] took their
   fast paths: the copying rows at 2.5x the minimum heap, the
   mark-compact rows at 6x, the first mark-sweep rows at the smallest
   of 6x, 8x or 32x at which the linear free-list scan then finished
   well under a second. The last block, recorded before the free list
   was indexed, puts every mutator under mark-sweep at 3x, where holes
   are many and small and first-fit does most of the allocating. *)
type golden = {
  words : int;
  objects : int;
  ops : int;
  fast : int;
  slow : int;
  filtered : int;
  gcs : int;
  copied : int;
}

let g words objects ops fast slow filtered gcs copied =
  { words; objects; ops; fast; slow; filtered; gcs; copied }

let golden =
  [
    ("25.25.100", "jess", 242, g 3700097 523175 558956 0 635 558321 113 312456);
    ("25.25.100", "raytrace", 218, g 1600082 198995 203089 0 0 203089 36 39877);
    ("25.25.100", "db", 328, g 1300003 69089 74043 0 1621 72422 19 80052);
    ("25.25.100", "javac", 332, g 3294645 362693 409049 0 30349 378700 104 571124);
    ("25.25.100", "jack", 138, g 4000648 590083 620169 0 210 619959 197 451466);
    ("25.25.100", "pseudojbb", 622, g 4137542 422825 691030 0 3164 687866 32 218040);
    ("appel", "jess", 242, g 3700097 523175 558956 0 612 558344 128 319952);
    ("appel", "raytrace", 218, g 1600082 198995 203089 0 0 203089 23 39469);
    ("appel", "db", 328, g 1300003 69089 74043 0 1501 72542 13 78612);
    ("appel", "javac", 332, g 3294645 362693 409049 0 28136 380913 87 448684);
    ("appel", "jack", 138, g 4000648 590083 620169 0 290 619879 274 494548);
    ("appel", "pseudojbb", 622, g 4137542 422825 691030 0 2995 688035 25 218988);
    ("25.25.100+strategy:marksweep", "jess", 3104,
     g 3700097 523175 558956 38075 1192 519689 5 0);
    ("25.25.100+strategy:marksweep", "raytrace", 522,
     g 1600082 198995 203089 0 0 203089 15 0);
    ("25.25.100+strategy:marksweep", "db", 786,
     g 1300003 69089 74043 10494 1504 62045 6 0);
    ("25.25.100+strategy:marksweep", "javac", 4256,
     g 3294645 362693 409049 0 4524 404525 3 0);
    ("25.25.100+strategy:marksweep", "jack", 440,
     g 4000648 590083 620169 0 60 620109 44 0);
    ("25.25.100+strategy:marksweep", "pseudojbb", 1992,
     g 4137542 422825 691030 0 2842 688188 10 0);
    ("25.25.100+strategy:markcompact", "jess", 582,
     g 3700097 523175 558956 0 498 558458 31 0);
    ("25.25.100+strategy:markcompact", "raytrace", 522,
     g 1600082 198995 203089 0 0 203089 15 0);
    ("25.25.100+strategy:markcompact", "db", 786,
     g 1300003 69089 74043 0 1504 72539 8 0);
    ("25.25.100+strategy:markcompact", "javac", 798,
     g 3294645 362693 409049 0 19843 389206 20 0);
    ("25.25.100+strategy:markcompact", "jack", 330,
     g 4000648 590083 620169 0 75 620094 59 0);
    ("25.25.100+strategy:markcompact", "pseudojbb", 1494,
     g 4137542 422825 691030 0 2931 688099 13 0);
  ]

let golden_marksweep_3x =
  [
    ("25.25.100+strategy:marksweep", "jess", 291,
     g 3700097 523175 558956 489722 24341 44893 78 0);
    ("25.25.100+strategy:marksweep", "raytrace", 261,
     g 1600082 198995 203089 0 0 203089 30 0);
    ("25.25.100+strategy:marksweep", "db", 393,
     g 1300003 69089 74043 38355 995 34693 30 0);
    ("25.25.100+strategy:marksweep", "jack", 165,
     g 4000648 590083 620169 593982 6 26181 126 0);
    ("25.25.100+strategy:marksweep", "pseudojbb", 747,
     g 4137542 422825 691030 392269 2253 296508 146 0);
  ]

let run_golden label name frames =
  let config = Result.get_ok (Beltway.Config.parse label) in
  let gc =
    Gc.create ~config ~heap_bytes:(frames * Beltway_sim.Runner.frame_bytes) ()
  in
  (gc, fun () -> (Option.get (Spec.by_name name)).Spec.run gc)

let check_golden gc want =
  let s = Gc.stats gc in
  checki "words_allocated" want.words s.Gc_stats.words_allocated;
  checki "objects_allocated" want.objects s.Gc_stats.objects_allocated;
  checki "barrier_ops" want.ops s.Gc_stats.barrier_ops;
  checki "barrier_fast" want.fast s.Gc_stats.barrier_fast;
  checki "barrier_slow" want.slow s.Gc_stats.barrier_slow;
  checki "barrier_filtered" want.filtered s.Gc_stats.barrier_filtered;
  checki "gcs" want.gcs (Gc_stats.gcs s);
  checki "copied_words" want.copied (Gc_stats.total_copied_words s);
  let st = Gc.state gc in
  checki "live increment count"
    (List.length (Beltway.State.live_increments st))
    (Beltway.State.total_increments st)

let test_golden (label, name, frames, want) () =
  let gc, run = run_golden label name frames in
  run ();
  check_golden gc want

(* javac at 3x under mark-sweep: its free lists fragment until no hole
   admits a 10-word object, however often the heap is swept — the
   fragmentation outcome [experiments strategies] reproduces. *)
let test_javac_fragments () =
  let gc, run = run_golden "25.25.100+strategy:marksweep" "javac" 399 in
  Alcotest.check_raises "out of memory"
    (Gc.Out_of_memory
       "no progress after 31 collections for a 10-word allocation (heap 399 \
        frames, 399 used, reserve 0)")
    run;
  check_golden gc (g 2873897 316384 356824 302822 6439 47563 257 0)

(* ---- error paths ---------------------------------------------------- *)

let gc_of config_str =
  let config = Result.get_ok (Beltway.Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(256 * 1024) ()

let verify_ok gc =
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e

(* A negative field count misses the fast path without touching the
   heap, and the fallback raises [Gc.alloc]'s usual error. *)
let test_negative_fields_fast_path () =
  let gc = gc_of "25.25.100" in
  let ty = Gc.register_type gc ~name:"t" in
  ignore (Gc.alloc gc ~ty ~nfields:2);
  let words = Gc.words_allocated gc in
  let tib = Gc.tib_value gc ty in
  checki "fast path declines" Addr.null (Gc.alloc_small_fast gc ~tib ~nfields:(-1));
  Alcotest.check_raises "fallback rejects"
    (Invalid_argument "Gc.alloc: negative field count") (fun () ->
      let a = Gc.alloc_small_fast gc ~tib ~nfields:(-1) in
      if a = Addr.null then ignore (Gc.alloc gc ~ty ~nfields:(-1)));
  checki "nothing allocated" words (Gc.words_allocated gc);
  verify_ok gc

let barrier_ops gc = (Gc.stats gc).Gc_stats.barrier_ops

(* Each rejected [Gc.write] raises the message the checked
   [Object_model.set_field] path always raised, before any store or
   barrier. *)
let test_write_errors () =
  let gc = gc_of "ss" in
  let ty = Gc.register_type gc ~name:"t" in
  let roots = Gc.roots gc in
  let keep = Gc.alloc gc ~ty ~nfields:2 in
  let g = Roots.new_global roots (Value.of_addr keep) in
  let doomed = Gc.alloc gc ~ty ~nfields:2 in
  Gc.collect gc;
  let keep = Value.to_addr (Roots.get_global roots g) in
  let mem = (Gc.state gc).Beltway.State.mem in
  let ops = barrier_ops gc in
  let v = Value.of_addr keep in
  Alcotest.check_raises "null object" (Invalid_argument "Memory.get: null address")
    (fun () -> Gc.write gc Addr.null 0 v);
  let frame = Memory.addr_frame mem doomed in
  Alcotest.(check bool) "doomed frame freed" false (Memory.is_live mem frame);
  Alcotest.check_raises "dead frame"
    (Invalid_argument
       (Printf.sprintf "Memory.get: address %#x in dead frame %d" doomed frame))
    (fun () -> Gc.write gc doomed 0 v);
  Alcotest.check_raises "field -1"
    (Invalid_argument
       (Printf.sprintf "Object_model: field -1 out of bounds [0,2) at %#x" keep))
    (fun () -> Gc.write gc keep (-1) v);
  Alcotest.check_raises "field nfields"
    (Invalid_argument
       (Printf.sprintf "Object_model: field 2 out of bounds [0,2) at %#x" keep))
    (fun () -> Gc.write gc keep 2 v);
  checki "no barrier for a rejected store" ops (barrier_ops gc);
  verify_ok gc;
  let header = Memory.get mem keep in
  Object_model.set_forwarding mem keep keep;
  Alcotest.check_raises "forwarded object"
    (Invalid_argument
       (Printf.sprintf "Object_model.nfields: object %#x is forwarded" keep))
    (fun () -> Gc.write gc keep 0 v);
  Memory.set mem keep header;
  checki "no barrier for a forwarded object" ops (barrier_ops gc);
  verify_ok gc

let suite =
  [
    ("negative fields miss the fast path", `Quick, test_negative_fields_fast_path);
    ("write error messages", `Quick, test_write_errors);
  ]
  @ List.map
      (fun ((label, name, _, _) as row) ->
        (Printf.sprintf "golden %s under %s" name label, `Slow, test_golden row))
      golden
  @ List.map
      (fun ((label, name, _, _) as row) ->
        (Printf.sprintf "golden %s under %s at 3x" name label, `Slow, test_golden row))
      golden_marksweep_3x
  @ [ ("golden javac under 25.25.100+strategy:marksweep at 3x runs out of memory",
       `Slow, test_javac_fragments) ]

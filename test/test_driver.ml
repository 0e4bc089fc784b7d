(* The collection driver's contract. Every strategy runs through the one
   [Collector.collect] body; these cases pin what that body promises
   whichever kernel it drives:

   - the hook fan-out brackets each logged collection exactly once, in
     order, with [in_gc] set only between the start and end hooks;
   - [roots_scanned] is the mutator's global plus stack slot count at
     the start of the collection;
   - each kernel fills only its own counters (a count the kernel has no
     use for stays 0 in the logged record);
   - every plan increment is settled: afterwards no increment, and no
     frame, still carries a plan or mark bit, and a copying collection
     without pinned increments frees exactly the plan's frames;
   - [Gc.create] accepts [~gc_domains:1] and nothing else. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module Gc_stats = Beltway.Gc_stats
module State = Beltway.State
module Increment = Beltway.Increment
module Frame_table = Beltway.Frame_table
module Strategy = Beltway.Strategy
module Trace = Beltway_workload.Trace
module Vec = Beltway_util.Vec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let config_of ~strategy base =
  let s =
    if strategy = Strategy.default_name then base else base ^ "+strategy:" ^ strategy
  in
  match Config.parse s with
  | Ok c -> (s, c)
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

(* What the hooks saw of one collection. *)
type seen = {
  roots_at_start : int;
  in_gc_at_start : bool;
  mutable reserve : int option;
  mutable ended : bool;
  mutable in_gc_at_end : bool;
  mutable unsettled : string list;
}

(* Every increment and every frame of it must have left the plan, with
   its mark cleared, by the time [on_collect_end] fires. *)
let unsettled st =
  List.concat_map
    (fun (inc : Increment.t) ->
      let id = inc.Increment.id in
      (if inc.Increment.in_plan then [ Printf.sprintf "increment %d in plan" id ] else [])
      @ (if inc.Increment.gc_mark then [ Printf.sprintf "increment %d marked" id ] else [])
      @ Vec.fold
          (fun acc f ->
            if Frame_table.in_plan st.State.ftab f then
              Printf.sprintf "frame %d of increment %d in plan" f id :: acc
            else acc)
          [] inc.Increment.frames)
    (State.live_increments st)

(* Drive a heap through a random mutator trace with some stack roots
   and, under [+los], large objects both kept and dropped, recording
   each collection as the hooks see it. *)
let drive ~config_s config =
  let gc = Gc.create ~frame_log_words:8 ~config ~heap_bytes:(768 * 1024) () in
  let st = Gc.state gc in
  let roots = Gc.roots gc in
  let seen : seen Vec.t =
    Vec.create
      ~dummy:
        {
          roots_at_start = 0;
          in_gc_at_start = false;
          reserve = None;
          ended = false;
          in_gc_at_end = false;
          unsettled = [];
        }
      ()
  in
  let current () =
    if Vec.length seen = 0 then Alcotest.failf "%s: hook fired outside a collection" config_s;
    Vec.get seen (Vec.length seen - 1)
  in
  State.add_hooks st
    {
      State.noop_hooks with
      on_collect_start =
        (fun ~reason:_ ~emergency:_ ->
          if Vec.length seen > 0 && not (current ()).ended then
            Alcotest.failf "%s: collection %d started inside collection %d" config_s
              (Vec.length seen) (Vec.length seen - 1);
          Vec.push seen
            {
              roots_at_start = Roots.global_count roots + Roots.depth roots;
              in_gc_at_start = st.State.in_gc;
              reserve = None;
              ended = false;
              in_gc_at_end = true;
              unsettled = [];
            });
      on_reserve =
        (fun ~frames ->
          let s = current () in
          if s.reserve <> None || s.ended then
            Alcotest.failf "%s: on_reserve fired twice for collection %d" config_s
              (Vec.length seen - 1);
          s.reserve <- Some frames);
      on_collect_end =
        (fun ~full_heap:_ ->
          let s = current () in
          if s.ended then
            Alcotest.failf "%s: on_collect_end fired twice for collection %d" config_s
              (Vec.length seen - 1);
          s.ended <- true;
          s.in_gc_at_end <- st.State.in_gc;
          s.unsettled <- unsettled st);
    };
  let ty = Gc.register_type gc ~name:"driver" in
  for i = 1 to 3 do
    let a = Gc.alloc gc ~ty ~nfields:2 in
    Gc.write gc a 0 (Value.of_int i);
    Roots.push roots (Value.of_addr a)
  done;
  Roots.push roots (Value.of_int 0);
  let big = Roots.new_global roots Value.null in
  List.iter
    (fun seed ->
      for i = 1 to 4 do
        let b = Gc.alloc gc ~ty ~nfields:200 in
        if i mod 2 = 0 then Roots.set_global roots big (Value.of_addr b)
      done;
      Trace.execute gc (Trace.random ~seed ~nroots:8 ~len:2500);
      Gc.collect gc)
    [ 5; 17; 29 ];
  Gc.full_collect gc;
  (match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: integrity: %s" config_s e);
  (gc, seen)

(* The hook and settle half of the contract, over one heap's whole
   collection log. *)
let check_log ~config_s gc seen =
  let stats = Gc.stats gc in
  let n = Gc_stats.gcs stats in
  checkb (config_s ^ ": collected at least 4 times") true (n >= 4);
  checki (config_s ^ ": one on_collect_start per logged collection") n (Vec.length seen);
  for i = 0 to n - 1 do
    let r : Gc_stats.collection = Vec.get stats.Gc_stats.collections i in
    let s = Vec.get seen i in
    let tag = Printf.sprintf "%s collection %d" config_s i in
    checki (tag ^ ": logged ordinal") i r.Gc_stats.n;
    checkb (tag ^ ": in_gc set at on_collect_start") true s.in_gc_at_start;
    checkb (tag ^ ": on_collect_end fired") true s.ended;
    checkb (tag ^ ": in_gc clear at on_collect_end") false s.in_gc_at_end;
    Alcotest.(check (option int))
      (tag ^ ": on_reserve reports the logged reserve")
      (Some r.Gc_stats.reserve_frames) s.reserve;
    checki (tag ^ ": roots_scanned = globals + stack slots") s.roots_at_start
      r.Gc_stats.roots_scanned;
    Alcotest.(check (list string)) (tag ^ ": every plan increment settled") [] s.unsettled;
    checkb (tag ^ ": frees no more than the plan held") true
      (r.Gc_stats.freed_frames <= r.Gc_stats.plan_frames)
  done;
  checkb (config_s ^ ": in_gc clear after the run") false (Gc.state gc).State.in_gc

let sum stats f =
  Vec.fold (fun acc r -> acc + f r) 0 stats.Gc_stats.collections

(* Which counters each kernel fills: the evacuating kernel copies and
   never marks, sweeps or slides; mark-sweep marks and sweeps in place;
   mark-compact marks and slides. A counter outside the kernel's set
   must stay 0 in every record, and one inside it must move somewhere
   in the log. *)
let check_counters ~strategy ~config_s gc =
  let stats = Gc.stats gc in
  let total name f expect_used =
    let t = sum stats f in
    if expect_used then checkb (Printf.sprintf "%s: %s used" config_s name) true (t > 0)
    else checki (Printf.sprintf "%s: %s stays 0" config_s name) 0 t
  in
  let copying = strategy = "copying"
  and sweeping = strategy = "marksweep"
  and compacting = strategy = "markcompact" in
  total "copied_words" (fun r -> r.Gc_stats.copied_words) copying;
  total "copied_objects" (fun r -> r.Gc_stats.copied_objects) copying;
  total "marked_objects" (fun r -> r.Gc_stats.marked_objects) (not copying);
  total "marked_words" (fun r -> r.Gc_stats.marked_words) (not copying);
  total "moved_words" (fun r -> r.Gc_stats.moved_words) compacting;
  if copying then total "swept_words" (fun r -> r.Gc_stats.swept_words) false;
  if sweeping then total "swept_words" (fun r -> r.Gc_stats.swept_words) true;
  total "scanned_slots" (fun r -> r.Gc_stats.scanned_slots) true;
  total "remset_slots" (fun r -> r.Gc_stats.remset_slots) true;
  total "freed_frames" (fun r -> r.Gc_stats.freed_frames) true

let test_contract strategy () =
  List.iter
    (fun base ->
      let config_s, config = config_of ~strategy base in
      let gc, seen = drive ~config_s config in
      check_log ~config_s gc seen;
      check_counters ~strategy ~config_s gc;
      (* Without pinned increments nothing in a copying plan is kept in
         place: settling releases every plan frame. *)
      if strategy = "copying" && base = "25.25.100" then
        Vec.iter
          (fun (r : Gc_stats.collection) ->
            checki
              (Printf.sprintf "%s collection %d frees its whole plan" config_s
                 r.Gc_stats.n)
              r.Gc_stats.plan_frames r.Gc_stats.freed_frames)
          (Gc.stats gc).Gc_stats.collections)
    [ "25.25.100"; "25.25.100+los:128"; "appel+cards" ]

(* Any other domain count is an early, named [Invalid_argument] for
   every strategy, and a rejected request leaves nothing behind: the
   next [Gc.create] on the same config works. *)
let test_domain_rejection () =
  List.iter
    (fun strategy ->
      let config_s, config = config_of ~strategy "25.25.100" in
      List.iter
        (fun n ->
          Alcotest.check_raises
            (Printf.sprintf "%s rejects gc_domains %d" config_s n)
            (Invalid_argument (Printf.sprintf "Gc.create: gc_domains must be 1 (got %d)" n))
            (fun () ->
              ignore
                (Gc.create ~frame_log_words:8 ~gc_domains:n ~config
                   ~heap_bytes:(256 * 1024) ())))
        [ 0; -1; 2; 4 ];
      let gc = Gc.create ~frame_log_words:8 ~gc_domains:1 ~config ~heap_bytes:(256 * 1024) () in
      let ty = Gc.register_type gc ~name:"driver.domains" in
      ignore (Gc.alloc gc ~ty ~nfields:2);
      Gc.full_collect gc;
      checki (config_s ^ ": the accepted heap collects") 1 (Gc_stats.gcs (Gc.stats gc)))
    Strategy.names

let suite =
  List.map
    (fun s -> ("driver contract: " ^ s, `Quick, test_contract s))
    Strategy.names
  @ [
      ("other gc_domains rejected", `Quick, test_domain_rejection);
    ]

(* The checking layers checked: the fault-injection matrix (every
   seeded defect class detected), zero false positives on clean runs of
   the six workloads and the bundled Beltlang programs, and the shadow
   heap's bookkeeping itself. *)

module Gc = Beltway.Gc
module Config = Beltway.Config
module Sanitizer = Beltway_check.Sanitizer
module Faults = Beltway_check.Faults

let checki = Alcotest.(check int)

let parse cs = Result.get_ok (Config.parse cs)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* --- fault matrix ------------------------------------------------- *)

let test_fault fault () =
  match Faults.inject fault with
  | Ok _violation -> ()
  | Error why -> Alcotest.failf "%s: %s" (Faults.name fault) why

(* The detections come from the layer the fault targets: barrier and
   accounting faults need Verify (Paranoid), memory faults are caught
   by the shadow diff alone. The harness encodes that; here we pin the
   reported messages to the expected defect class so a future
   regression cannot pass by flagging the wrong thing. *)
let test_fault_messages () =
  let expect fault fragment =
    match Faults.inject fault with
    | Error why -> Alcotest.failf "%s: %s" (Faults.name fault) why
    | Ok msg ->
      if not (contains ~needle:fragment msg) then
        Alcotest.failf "%s: expected %S in %S" (Faults.name fault) fragment msg
  in
  expect Faults.Skipped_barrier "unremembered interesting pointer";
  expect Faults.Dropped_remset "stale reference";
  expect Faults.Corrupted_header "corrupted header";
  expect Faults.Premature_free "lost object";
  expect Faults.Undersized_reserve "frame accounting drift";
  expect Faults.Racy_forwarding "stale reference";
  expect Faults.Dropped_mark "clobbered";
  expect Faults.Misthreaded_compact "stale reference";
  expect Faults.Overlapping_hole "clobbered field"

(* --- clean runs: no false positives ------------------------------- *)

let assert_clean what san =
  Sanitizer.check_now san;
  match Sanitizer.violations san with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: false positive (%d violations; first: %s)" what
      (List.length (Sanitizer.violations san))
      v

let test_clean_workload (bench : Beltway_workload.Spec.t) () =
  List.iter
    (fun cs ->
      let gc =
        Gc.create ~frame_log_words:8 ~config:(parse cs)
          ~heap_bytes:(1536 * 1024) ()
      in
      let san = Sanitizer.attach ~level:Sanitizer.Paranoid gc in
      bench.Beltway_workload.Spec.run gc;
      assert_clean (Printf.sprintf "%s under %s" bench.Beltway_workload.Spec.name cs) san;
      Alcotest.(check bool)
        (Printf.sprintf "%s: collections were checked" bench.Beltway_workload.Spec.name)
        true
        (Sanitizer.collections_checked san > 0))
    [ "25.25.100"; "appel+cards" ]

let test_clean_beltlang () =
  List.iter
    (fun (p : Beltlang.Programs.t) ->
      List.iter
        (fun cs ->
          let gc = Gc.create ~config:(parse cs) ~heap_bytes:(768 * 1024) () in
          let san = Sanitizer.attach ~level:Sanitizer.Paranoid gc in
          let interp = Beltlang.Interp.create gc in
          Beltlang.Interp.run_string interp p.Beltlang.Programs.source;
          (match p.Beltlang.Programs.expected_output with
          | Some expected ->
            Alcotest.(check string)
              (p.Beltlang.Programs.name ^ " output under sanitizer")
              expected
              (Beltlang.Interp.output interp)
          | None -> ());
          assert_clean (Printf.sprintf "beltlang %s under %s" p.Beltlang.Programs.name cs) san)
        [ "25.25.100"; "ss" ])
    Beltlang.Programs.all

(* --- shadow bookkeeping ------------------------------------------- *)

(* Hooks fire on every allocation path and survive a full collection:
   the shadow tracks exactly the reachable population after a purge. *)
let test_shadow_tracking () =
  let gc =
    Gc.create ~frame_log_words:8 ~config:(parse "25.25.100+los:128")
      ~heap_bytes:(512 * 1024) ()
  in
  let san = Sanitizer.attach ~level:Sanitizer.Shadow gc in
  let ty = Gc.register_type gc ~name:"check.node" in
  let roots = Gc.roots gc in
  (* kept: one small rooted object, one pretenured, one large (LOS) *)
  let keep = Gc.alloc gc ~ty ~nfields:2 in
  let gkeep = Roots.new_global roots (Value.of_addr keep) in
  let pre = Gc.alloc_pretenured gc ~ty ~nfields:2 ~belt:1 in
  let gpre = Roots.new_global roots (Value.of_addr pre) in
  let big = Gc.alloc gc ~ty ~nfields:200 in
  let gbig = Roots.new_global roots (Value.of_addr big) in
  (* garbage: dropped on the floor *)
  for _ = 1 to 50 do
    ignore (Gc.alloc gc ~ty ~nfields:3)
  done;
  Gc.full_collect gc;
  assert_clean "shadow tracking" san;
  (* The diff at collect-end purged the garbage: only the three
     survivors (and nothing else) remain mirrored. *)
  checki "tracked after purge" 3 (Sanitizer.tracked san);
  ignore (Roots.get_global roots gkeep);
  ignore (Roots.get_global roots gpre);
  ignore (Roots.get_global roots gbig)

let test_detach () =
  let gc = Gc.create ~config:(parse "ss") ~heap_bytes:(256 * 1024) () in
  let san = Sanitizer.attach ~level:Sanitizer.Shadow gc in
  let ty = Gc.register_type gc ~name:"check.node" in
  ignore (Gc.alloc gc ~ty ~nfields:1);
  checki "tracked while attached" 1 (Sanitizer.tracked san);
  Sanitizer.detach san;
  ignore (Gc.alloc gc ~ty ~nfields:1);
  checki "no tracking after detach" 1 (Sanitizer.tracked san)

let suite =
  List.map
    (fun f -> ("fault " ^ Faults.name f, `Quick, test_fault f))
    Faults.all
  @ [
      ("fault messages name the defect", `Quick, test_fault_messages);
      ("beltlang programs clean under sanitizer", `Slow, test_clean_beltlang);
      ("shadow tracks survivors exactly", `Quick, test_shadow_tracking);
      ("detach stops tracking", `Quick, test_detach);
    ]
  @ List.map
      (fun (b : Beltway_workload.Spec.t) ->
        ("clean " ^ b.Beltway_workload.Spec.name, `Slow, test_clean_workload b))
      Beltway_workload.Spec.all

(* Differential testing: random mutation traces executed against every
   collector configuration must agree with a pure-OCaml mirror, and
   leave the heap structurally sound. This is the suite's strongest
   whole-system property. *)

module Trace = Beltway_workload.Trace
module Gc = Beltway.Gc
module Config = Beltway.Config

let configs =
  [
    "ss"; "appel"; "appel3"; "fixed:25"; "ofm:25"; "of:25"; "25.25"; "25.25.100";
    "10.10.100"; "appel+ttd:8"; "25.25.100+remtrig:2000"; "40.20"; "of:10";
    "25.25.100+nofilter"; "25.25.100+halfreserve"; "appel+cards";
    "25.25.100+los:128";
  ]

let gc_of config_str =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~frame_log_words:8 ~config ~heap_bytes:(192 * 1024) ()

let run_one config_str seed =
  let tr = Trace.random ~seed ~nroots:10 ~len:2500 in
  let gc = gc_of config_str in
  (match Trace.compare_with_mirror gc tr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d under %s: %s" seed config_str e);
  match Beltway.Verify.check gc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d under %s: integrity: %s" seed config_str e

let differential_prop config_str =
  QCheck.Test.make
    ~name:(Printf.sprintf "trace differential (%s)" config_str)
    ~count:12 QCheck.small_nat
    (fun seed ->
      let tr = Trace.random ~seed:(seed + 1) ~nroots:8 ~len:1500 in
      let gc = gc_of config_str in
      Result.is_ok (Trace.compare_with_mirror gc tr)
      && Result.is_ok (Beltway.Verify.check gc))

(* A handcrafted trace covering every op, as a deterministic anchor. *)
let test_handcrafted () =
  let open Trace in
  let tr =
    {
      nroots = 3;
      ops =
        [
          Alloc { root = 0; nfields = 2 };
          Write_int { src = 0; field = 0; v = 11 };
          Alloc { root = 1; nfields = 3 };
          Write { src = 1; field = 0; dst = 0 };
          Copy_root { src = 1; dst = 2 };
          Collect;
          Deref { src = 2; field = 0; dst = 0 };
          Write { src = 0; field = 1; dst = 2 } (* cycle: child -> parent *);
          Collect;
          Write_null { src = 1; field = 0 };
          Clear_root { root = 1 };
          Collect;
        ];
    }
  in
  List.iter
    (fun cs ->
      match Trace.compare_with_mirror (gc_of cs) tr with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" cs e)
    configs

(* Out-of-bounds writes are no-ops on both sides. *)
let test_oob_fields_ignored () =
  let open Trace in
  let tr =
    {
      nroots = 2;
      ops =
        [
          Alloc { root = 0; nfields = 1 };
          Write_int { src = 0; field = 5; v = 9 };
          Deref { src = 0; field = 7; dst = 1 };
          Write { src = 1; field = 0; dst = 0 } (* src null: no-op *);
        ];
    }
  in
  match Trace.compare_with_mirror (gc_of "appel") tr with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  List.concat_map
    (fun cs ->
      [
        (Printf.sprintf "fixed seeds (%s)" cs, `Quick, fun () ->
          List.iter (run_one cs) [ 1; 2; 3 ]);
        QCheck_alcotest.to_alcotest (differential_prop cs);
      ])
    configs
  @ [
      ("handcrafted trace", `Quick, test_handcrafted);
      ("out-of-bounds fields ignored", `Quick, test_oob_fields_ignored);
    ]

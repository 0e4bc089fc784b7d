(* The mark-sweep free list answers first-fit through a max-tree index.
   Its contract is that the index is invisible: every query returns the
   hole a front-to-back scan of the slots would return, and leaves the
   same slots, word count and heap words behind. The reference model
   below is that scan, kept here as the oracle; random operation
   sequences and the edge cases of the remainder rule replay against
   both on twin scratch memories. *)

module Increment = Beltway.Increment

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let header_words = Object_model.header_words

(* One 1024-word frame per memory; holes are offsets into it. *)
let frame_words = 1024

let scratch () =
  let mem = Memory.create ~frame_log_words:10 ~max_frames:4 in
  let base = Memory.frame_base mem (Memory.alloc_frame mem) in
  (mem, base)

(* The filler the sweep writes over a dead run before indexing it. *)
let write_filler mem addr words =
  Memory.set mem addr ((words - header_words) lsl 1);
  Memory.fill mem ~dst:(addr + 1) ~len:(words - 1) 1

(* ---- reference model: linear first-fit ------------------------------ *)

type model = {
  mem : Memory.t;
  mutable pairs : (Addr.t * int) array; (* slot order *)
  mutable words : int;
  mutable objects : int;
}

let model_push m ~addr ~words =
  m.pairs <- Array.append m.pairs [| (addr, words) |];
  m.words <- m.words + words

let model_clear m =
  m.pairs <- [||];
  m.words <- 0

let admits words ~size = words = size || words >= size + header_words

let model_fits m ~size = Array.exists (fun (_, w) -> admits w ~size) m.pairs

let model_fit m ~size =
  let n = Array.length m.pairs in
  let rec scan i =
    if i = n then Addr.null
    else
      let a, w = m.pairs.(i) in
      if w = size then begin
        m.pairs.(i) <- m.pairs.(n - 1);
        m.pairs <- Array.sub m.pairs 0 (n - 1);
        a
      end
      else if w >= size + header_words then begin
        write_filler m.mem (a + size) (w - size);
        m.pairs.(i) <- (a + size, w - size);
        m.objects <- m.objects + 1;
        a
      end
      else scan (i + 1)
  in
  let a = scan 0 in
  if a <> Addr.null then begin
    m.words <- m.words - size;
    Memory.fill m.mem ~dst:a ~len:size 0
  end;
  a

(* ---- operations ------------------------------------------------------ *)

type op =
  | Sweep of (int * int) list (* clear, then push each (offset, words) *)
  | Push of int * int
  | Clear
  | Fits of int
  | Fit of int

let show_op = function
  | Sweep hs ->
    "sweep ["
    ^ String.concat "; " (List.map (fun (o, w) -> Printf.sprintf "%d+%d" o w) hs)
    ^ "]"
  | Push (o, w) -> Printf.sprintf "push %d+%d" o w
  | Clear -> "clear"
  | Fits s -> Printf.sprintf "fits %d" s
  | Fit s -> Printf.sprintf "fit %d" s

(* Twin heaps: the increment under test and the model, each on its own
   memory with the same frame, so every write can be compared. *)
type twin = { inc : Increment.t; mem : Memory.t; base : Addr.t; model : model }

let twin () =
  let mem, base = scratch () in
  let mmem, mbase = scratch () in
  assert (base = mbase);
  let inc = Increment.create ~id:1 ~belt:0 ~stamp:0 ~bound_frames:None in
  { inc; mem; base; model = { mem = mmem; pairs = [||]; words = 0; objects = 0 } }

let push t off words =
  let addr = t.base + off in
  write_filler t.mem addr words;
  write_filler t.model.mem addr words;
  Increment.push_free t.inc ~addr ~words;
  model_push t.model ~addr ~words

(* Apply one operation to both sides and require identical outcomes;
   returns the address a [Fit] placed (null otherwise). *)
let step t op =
  let ctx what = Printf.sprintf "%s: %s" (show_op op) what in
  let placed =
    match op with
    | Sweep holes ->
      Increment.clear_free_list t.inc;
      model_clear t.model;
      List.iter (fun (off, words) -> push t off words) holes;
      Addr.null
    | Push (off, words) ->
      push t off words;
      Addr.null
    | Clear ->
      Increment.clear_free_list t.inc;
      model_clear t.model;
      Addr.null
    | Fits size ->
      checkb (ctx "fits_free") (model_fits t.model ~size)
        (Increment.fits_free t.inc ~size);
      Addr.null
    | Fit size ->
      let want = model_fit t.model ~size in
      let got = Increment.fit_or_null t.inc t.mem ~size in
      checki (ctx "address") want got;
      got
  in
  Alcotest.(check (list (pair int int)))
    (ctx "slots") (Array.to_list t.model.pairs) (Increment.holes t.inc);
  checki (ctx "free_words") t.model.words (Increment.free_words t.inc);
  checki (ctx "objects") t.model.objects t.inc.Increment.objects;
  for i = 0 to frame_words - 1 do
    let a = t.base + i in
    if Memory.get t.mem a <> Memory.get t.model.mem a then
      Alcotest.failf "%s: word %d is %d, model has %d" (show_op op) i
        (Memory.get t.mem a) (Memory.get t.model.mem a)
  done;
  placed

let replay ops =
  let t = twin () in
  List.iter (fun op -> ignore (step t op)) ops

(* ---- random sequences ----------------------------------------------- *)

(* A sweep's layout: disjoint holes of 2..12 words with gaps of 0..6
   live words, so hole sizes collide often and every query size meets
   exact fits, splits and unrepresentable one-word remainders. *)
let gen_sweep =
  let open QCheck.Gen in
  let rec go off acc =
    let* gap = int_range 0 6 in
    let* words = int_range header_words 12 in
    let off = off + gap in
    if off + words > frame_words then return (List.rev acc)
    else
      let* stop = int_range 0 40 in
      if stop = 0 then return (List.rev ((off, words) :: acc))
      else go (off + words) ((off, words) :: acc)
  in
  go 0 []

let gen_op =
  let open QCheck.Gen in
  let size = int_range 2 14 in
  frequency
    [
      (1, map (fun hs -> Sweep hs) gen_sweep);
      ( 1,
        let* words = int_range header_words 12 in
        let* off = int_range 0 (frame_words - words) in
        return (Push (off, words)) );
      (1, return Clear);
      (6, map (fun s -> Fits s) size);
      (12, map (fun s -> Fit s) size);
    ]

(* Start from a sweep, as the collector does; later sweeps re-push over
   a heap the fits have already carved. *)
let gen_ops =
  let open QCheck.Gen in
  let* first = gen_sweep in
  let* rest = list_size (int_range 1 80) gen_op in
  return (Sweep first :: rest)

let index_matches_scan =
  QCheck.Test.make ~name:"first-fit index == linear scan (address, slots, words, heap)"
    ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_op ops)) gen_ops)
    (fun ops ->
      replay ops;
      true)

(* ---- edge cases ----------------------------------------------------- *)

(* Lay [sizes] out back to back from offset 0 as one sweep. *)
let sweep sizes =
  let _, holes =
    List.fold_left (fun (off, acc) w -> (off + w, (off, w) :: acc)) (0, []) sizes
  in
  Sweep (List.rev holes)

let with_twin sizes f =
  let t = twin () in
  ignore (step t (sweep sizes));
  f t

let check_slots t what want =
  Alcotest.(check (list (pair int int)))
    what
    (List.map (fun (off, w) -> (t.base + off, w)) want)
    (Increment.holes t.inc)

(* A hole one word too big cannot be split (the remainder filler needs
   [header_words]), so first-fit must pass over it to a later exact
   fit, even though its subtree's largest hole is large enough. *)
let test_skip_size_plus_one () =
  with_twin [ 5; 5; 5; 4; 5 ] (fun t ->
      checki "took the exact hole" (t.base + 15) (step t (Fit 4));
      check_slots t "last pair moved into the taken slot"
        [ (0, 5); (5, 5); (10, 5); (19, 5) ];
      checki "only size + 1 holes left" Addr.null (step t (Fit 4)))

let test_fits_at_root () =
  with_twin [ 3; 4; 2 ] (fun t ->
      checkb "largest hole exactly size" true (Increment.fits_free t.inc ~size:4));
  with_twin [ 3; 5; 2; 5 ] (fun t ->
      checkb "largest hole only size + 1" false (Increment.fits_free t.inc ~size:4));
  with_twin [ 5; 3; 4 ] (fun t ->
      checkb "size + 1 largest, exact fit behind it" true
        (Increment.fits_free t.inc ~size:4))

let test_exact_fit_last_slot () =
  with_twin [ 3; 5; 4 ] (fun t ->
      checki "took the last slot" (t.base + 8) (step t (Fit 4));
      check_slots t "last slot dropped" [ (0, 3); (3, 5) ];
      (* The emptied leaf must not answer later queries. *)
      checki "nothing left for 4" Addr.null (step t (Fit 4)))

let test_exact_fit_middle () =
  with_twin [ 3; 4; 9; 7 ] (fun t ->
      checki "took the middle slot" (t.base + 3) (step t (Fit 4));
      check_slots t "last pair swapped into it" [ (0, 3); (16, 7); (7, 9) ];
      (* The moved hole is found at its new slot, ahead of the 9. *)
      checki "split the moved hole" (t.base + 16) (step t (Fit 5));
      check_slots t "remainder in the moved slot" [ (0, 3); (21, 2); (7, 9) ])

let test_split_leaves_header () =
  with_twin [ 6 ] (fun t ->
      checki "split" t.base (step t (Fit 4));
      check_slots t "remainder of header_words" [ (4, header_words) ];
      checki "remainder header" 0 (Memory.get t.mem (t.base + 4));
      checki "remainder payload" 1 (Memory.get t.mem (t.base + 5));
      checki "remainder taken" (t.base + 4) (step t (Fit 2));
      check_slots t "list empty" [])

let suite =
  [
    ("skips a size + 1 hole", `Quick, test_skip_size_plus_one);
    ("fits_free at the root", `Quick, test_fits_at_root);
    ("exact fit of the last slot", `Quick, test_exact_fit_last_slot);
    ("exact fit from the middle", `Quick, test_exact_fit_middle);
    ("split leaving header_words", `Quick, test_split_leaves_header);
    QCheck_alcotest.to_alcotest index_matches_scan;
  ]

module A1 = Bigarray.Array1

type flat = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = {
  frame_log : int;
  frame_words : int;
  max_frames : int;
  mutable flat : flat; (* one flat backing; frame f occupies [f lsl frame_log, (f+1) lsl frame_log) *)
  mutable cap_frames : int; (* frames the backing can hold *)
  mutable liveness : Bytes.t; (* bit per frame; 0 = unmapped/dead *)
  free_list : int Beltway_util.Vec.t; (* recycled frame indices *)
  mutable next_fresh : int; (* next never-used frame index *)
  mutable live : int;
  mutable marks : Bytes.t;
      (* side mark bitmap: one bit per word, indexed by address. Empty
         until a marking strategy calls [ensure_marks]; grown alongside
         the backing so addresses stay valid indices. *)
}

(* Word-access checking (null / dead-frame detection) is on by default:
   it is what lets the test suite catch use-after-free and wild
   pointers. Export BELTWAY_MEMCHECK=0 to strip the checks from the hot
   path entirely (every access compiles to one unchecked load/store). *)
let checks_enabled =
  match Sys.getenv_opt "BELTWAY_MEMCHECK" with
  | Some ("0" | "off" | "false" | "no") -> false
  | _ -> true

let alloc_flat words : flat = A1.create Bigarray.int Bigarray.c_layout words

let create ~frame_log_words ~max_frames =
  if frame_log_words < 4 then invalid_arg "Memory.create: frame_log_words < 4";
  if max_frames < 1 then invalid_arg "Memory.create: max_frames < 1";
  let cap_frames = max 2 (min (max_frames + 2) 64) in
  {
    frame_log = frame_log_words;
    frame_words = 1 lsl frame_log_words;
    max_frames;
    flat = alloc_flat (cap_frames lsl frame_log_words);
    cap_frames;
    liveness = Bytes.make ((cap_frames + 7) / 8) '\000';
    free_list = Beltway_util.Vec.create ~dummy:0 ();
    next_fresh = 1 (* frame 0 reserved: address 0 is null *);
    live = 0;
    marks = Bytes.empty;
  }

let frame_log t = t.frame_log
let frame_words t = t.frame_words
let frame_bytes t = t.frame_words * Addr.bytes_per_word
let max_frames t = t.max_frames
let live_frames t = t.live
let fresh_frames t = t.next_fresh

exception Out_of_frames

let[@inline] live_bit t f =
  Char.code (Bytes.unsafe_get t.liveness (f lsr 3)) land (1 lsl (f land 7)) <> 0

let set_live_bit t f v =
  let byte = Char.code (Bytes.get t.liveness (f lsr 3)) in
  let mask = 1 lsl (f land 7) in
  Bytes.set t.liveness (f lsr 3)
    (Char.chr (if v then byte lor mask else byte land lnot mask))

let is_live t idx = idx >= 1 && idx < t.cap_frames && live_bit t idx

(* Grow the flat backing so frame indices < [needed] are addressable.
   Geometric growth; old contents are preserved by a block move. *)
let grow_backing t needed =
  if needed > t.cap_frames then begin
    let cap = max needed (t.cap_frames * 2) in
    let flat = alloc_flat (cap lsl t.frame_log) in
    A1.blit t.flat (A1.sub flat 0 (A1.dim t.flat));
    t.flat <- flat;
    let liveness = Bytes.make ((cap + 7) / 8) '\000' in
    Bytes.blit t.liveness 0 liveness 0 (Bytes.length t.liveness);
    t.liveness <- liveness;
    if Bytes.length t.marks > 0 then begin
      let marks = Bytes.make (((cap lsl t.frame_log) + 7) / 8) '\000' in
      Bytes.blit t.marks 0 marks 0 (Bytes.length t.marks);
      t.marks <- marks
    end;
    t.cap_frames <- cap
  end

let zero_frame t idx =
  A1.fill (A1.sub t.flat (idx lsl t.frame_log) t.frame_words) 0

let map_frame t idx =
  zero_frame t idx;
  set_live_bit t idx true;
  t.live <- t.live + 1

let alloc_frame t =
  if t.live >= t.max_frames then raise Out_of_frames;
  let idx =
    if not (Beltway_util.Vec.is_empty t.free_list) then
      Beltway_util.Vec.pop t.free_list
    else begin
      let idx = t.next_fresh in
      t.next_fresh <- idx + 1;
      grow_backing t (idx + 1);
      idx
    end
  in
  map_frame t idx;
  idx

(* Find a run of [n] consecutive indices in the free list; on success
   remove them from the list and return the first index. *)
let take_free_run t n =
  let len = Beltway_util.Vec.length t.free_list in
  if len < n then None
  else begin
    let sorted = Beltway_util.Vec.to_array t.free_list in
    Array.sort compare sorted;
    let first = ref (-1) in
    let run_start = ref 0 in
    (try
       for i = 1 to len do
         if i = len || sorted.(i) <> sorted.(i - 1) + 1 then begin
           if i - !run_start >= n then begin
             first := sorted.(!run_start);
             raise Exit
           end;
           run_start := i
         end
       done
     with Exit -> ());
    if !first < 0 then None
    else begin
      let lo = !first and hi = !first + n - 1 in
      (* In-place compaction of the survivors, preserving the vec's
         backing store. *)
      let w = ref 0 in
      for r = 0 to len - 1 do
        let idx = Beltway_util.Vec.get t.free_list r in
        if idx < lo || idx > hi then begin
          Beltway_util.Vec.set t.free_list !w idx;
          incr w
        end
      done;
      Beltway_util.Vec.truncate t.free_list !w;
      Some lo
    end
  end

let alloc_frames_contiguous t n =
  if n < 1 then invalid_arg "Memory.alloc_frames_contiguous: n < 1";
  if t.live + n > t.max_frames then raise Out_of_frames;
  let first =
    match take_free_run t n with
    | Some first -> first
    | None ->
      let first = t.next_fresh in
      t.next_fresh <- first + n;
      grow_backing t (first + n);
      first
  in
  List.init n (fun i ->
      let idx = first + i in
      map_frame t idx;
      idx)

let free_frame t idx =
  if not (is_live t idx) then
    invalid_arg (Printf.sprintf "Memory.free_frame: frame %d not live" idx);
  set_live_bit t idx false;
  Beltway_util.Vec.push t.free_list idx;
  t.live <- t.live - 1

(* Out-of-line failure paths keep the checking fast path small enough
   to inline. *)
let null_fail name = invalid_arg (Printf.sprintf "Memory.%s: null address" name)

let dead_fail t a name =
  invalid_arg
    (Printf.sprintf "Memory.%s: address %#x in dead frame %d" name a (a lsr t.frame_log))

let[@inline] check_addr t a name =
  if a = Addr.null then null_fail name;
  let f = a lsr t.frame_log in
  if f >= t.cap_frames || not (live_bit t f) then dead_fail t a name

let[@inline] unsafe_get t a = A1.unsafe_get t.flat a
let[@inline] unsafe_set t a v = A1.unsafe_set t.flat a v

let unsafe_blit t ~src ~dst ~len =
  if len <= 16 then
    for i = 0 to len - 1 do
      A1.unsafe_set t.flat (dst + i) (A1.unsafe_get t.flat (src + i))
    done
  else A1.blit (A1.sub t.flat src len) (A1.sub t.flat dst len)

let[@inline] get t a =
  if checks_enabled then check_addr t a "get";
  A1.unsafe_get t.flat a

let[@inline] set t a v =
  if checks_enabled then check_addr t a "set";
  A1.unsafe_set t.flat a v

let check_range t a len name =
  check_addr t a name;
  check_addr t (a + len - 1) name;
  if a lsr t.frame_log <> (a + len - 1) lsr t.frame_log then
    invalid_arg
      (Printf.sprintf "Memory.%s: range %#x+%d crosses a frame boundary" name a len)

let blit t ~src ~dst ~len =
  if len < 0 then invalid_arg "Memory.blit: negative length";
  if len > 0 then begin
    if checks_enabled then begin
      check_range t src len "blit";
      check_range t dst len "blit"
    end;
    if len <= 16 then
      for i = 0 to len - 1 do
        A1.unsafe_set t.flat (dst + i) (A1.unsafe_get t.flat (src + i))
      done
    else A1.blit (A1.sub t.flat src len) (A1.sub t.flat dst len)
  end

let fill t ~dst ~len v =
  if len < 0 then invalid_arg "Memory.fill: negative length";
  if len > 0 then begin
    if checks_enabled then check_range t dst len "fill";
    if len <= 16 then
      for i = 0 to len - 1 do
        A1.unsafe_set t.flat (dst + i) v
      done
    else A1.fill (A1.sub t.flat dst len) v
  end

let frame_base t idx = idx lsl t.frame_log
let addr_frame t a = a lsr t.frame_log
let addr_offset t a = a land (t.frame_words - 1)

(* ------------------------------------------------------------------ *)
(* Side mark bitmap: the liveness machinery one level down — a bit per
   *word* instead of per frame, keyed by address. Non-moving
   reclamation strategies use it to record per-object reachability
   without touching header words (so forwarding encodings and the mark
   state can never collide). Lazily materialised: copying collectors
   never pay for it. *)

let ensure_marks t =
  let need = ((t.cap_frames lsl t.frame_log) + 7) / 8 in
  if Bytes.length t.marks < need then begin
    let marks = Bytes.make need '\000' in
    Bytes.blit t.marks 0 marks 0 (Bytes.length t.marks);
    t.marks <- marks
  end

let[@inline] marked t a =
  Char.code (Bytes.unsafe_get t.marks (a lsr 3)) land (1 lsl (a land 7)) <> 0

let[@inline] set_mark t a =
  let i = a lsr 3 in
  let byte = Char.code (Bytes.unsafe_get t.marks i) in
  Bytes.unsafe_set t.marks i (Char.unsafe_chr (byte lor (1 lsl (a land 7))))

let clear_marks_frame t idx =
  (* A frame's address range is byte-aligned in the bitmap:
     [frame_words >= 16], so the range spans whole bytes. *)
  Bytes.fill t.marks ((idx lsl t.frame_log) lsr 3) (t.frame_words lsr 3) '\000'

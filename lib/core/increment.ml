module Vec = Beltway_util.Vec

(* An increment's free list: see "Free-list reallocation" below. *)
type free_list = {
  pairs : int Vec.t; (* (address, words) per slot *)
  mutable words : int; (* sum of the hole sizes *)
  mutable tree : int array; (* max-tree over the slots' sizes *)
  mutable stale : bool; (* pairs pushed since [tree] was built *)
}

let new_free_list () =
  { pairs = Vec.create ~dummy:0 (); words = 0; tree = [||]; stale = true }

type t = {
  id : int;
  mutable belt : int;
  mutable stamp : int;
  frames : int Vec.t;
  frame_used : int Vec.t;
  mutable cursor : Addr.t;
  mutable limit : Addr.t;
  mutable words_used : int;
  mutable objects : int;
  bound_frames : int option;
  mutable sealed : bool;
  pinned : bool;
  mutable in_plan : bool;
  mutable gc_mark : bool;
  free : free_list;
}

type pos = { mutable fi : int; mutable addr : Addr.t }

let create ~id ~belt ~stamp ~bound_frames =
  {
    id;
    belt;
    stamp;
    frames = Vec.create ~dummy:0 ();
    frame_used = Vec.create ~dummy:0 ();
    cursor = Addr.null;
    limit = Addr.null;
    words_used = 0;
    objects = 0;
    bound_frames;
    sealed = false;
    pinned = false;
    in_plan = false;
    gc_mark = false;
    free = new_free_list ();
  }

(* A pinned (large-object-space) increment: exactly one object of
   [size] words laid out across [frames] *contiguous* frames. Pinned
   increments are never copied and never receive further allocation. *)
let create_pinned ~id ~belt ~stamp ~frames:frame_list mem ~size =
  let t =
    {
      id;
      belt;
      stamp;
      frames = Vec.create ~dummy:0 ();
      frame_used = Vec.create ~dummy:0 ();
      cursor = Addr.null;
      limit = Addr.null;
      words_used = size;
      objects = 1;
      bound_frames = None;
      sealed = true;
      pinned = true;
      in_plan = false;
      gc_mark = false;
      free = new_free_list ();
    }
  in
  let fw = Memory.frame_words mem in
  let n = List.length frame_list in
  List.iteri
    (fun i f ->
      Vec.push t.frames f;
      (* Every frame fully used except possibly the last. *)
      Vec.push t.frame_used (if i < n - 1 then fw else size - ((n - 1) * fw)))
    frame_list;
  (match frame_list with
  | first :: _ ->
    t.cursor <- Memory.frame_base mem first + size;
    t.limit <- t.cursor
  | [] -> invalid_arg "Increment.create_pinned: no frames");
  t

let base_object t mem =
  if not t.pinned then invalid_arg "Increment.base_object: not pinned";
  Memory.frame_base mem (Vec.get t.frames 0)

let frame_count t = Vec.length t.frames
let occupancy_frames t = Vec.length t.frames
let words_used t = t.words_used

let wasted_words t mem =
  (frame_count t * Memory.frame_words mem) - t.words_used

let at_bound t =
  match t.bound_frames with None -> false | Some b -> frame_count t >= b

let retire_current_frame t mem =
  (* Record how much of the frame the bump pointer actually used. *)
  if frame_count t > 0 then begin
    let base = Memory.frame_base mem (Vec.top t.frames) in
    Vec.push t.frame_used (t.cursor - base)
  end

let add_frame t mem frame =
  if t.sealed then invalid_arg "Increment.add_frame: sealed";
  if at_bound t then invalid_arg "Increment.add_frame: at bound";
  retire_current_frame t mem;
  Vec.push t.frames frame;
  t.cursor <- Memory.frame_base mem frame;
  t.limit <- t.cursor + Memory.frame_words mem

(* The collector's and allocator's bump path: [Addr.null] for "does not
   fit" keeps it allocation-free (no [option] cell per object). *)
let[@inline] bump_or_null t ~size =
  if (not t.sealed) && t.cursor <> Addr.null && t.cursor + size <= t.limit then begin
    let addr = t.cursor in
    t.cursor <- t.cursor + size;
    t.words_used <- t.words_used + size;
    t.objects <- t.objects + 1;
    addr
  end
  else Addr.null

let try_bump t ~size =
  let addr = bump_or_null t ~size in
  if addr = Addr.null then None else Some addr

(* Roll back the most recent bump — the parallel collector's
   lost-forwarding-race path, where a speculative copy must be
   discarded. Sound only immediately after the matching
   [bump_or_null], with no intervening allocation or frame grant in
   this (domain-private) increment; the cursor check enforces that. *)
let unbump t ~addr ~size =
  if t.cursor <> addr + size then
    invalid_arg "Increment.unbump: not the most recent allocation";
  t.cursor <- addr;
  t.words_used <- t.words_used - size;
  t.objects <- t.objects - 1

let seal t = t.sealed <- true

(* ------------------------------------------------------------------ *)
(* Free-list reallocation (mark-sweep strategy). Each hole left by a
   swept object run is a *filler object* in the heap — even header
   [(words - header_words) lsl 1], every payload word an odd immediate
   — so the object stream stays walkable, and the free list is just an
   index over those fillers: flat (address, words) pairs, one pair per
   slot. First-fit with a remainder rule: a hole may be taken exactly,
   or split leaving at least [header_words] words for the remainder
   filler (smaller remainders cannot be represented, so such holes are
   skipped for that size).

   First-fit is answered by a max-tree over the slots' sizes (the
   exact-placement argument is in the interface): leaf [k] sits at
   [cap + k], node [j] holds the larger of nodes [2j] and [2j + 1],
   the root is node 1, and unused leaves hold 0, which admits no size.
   A push only marks the tree stale, so the sweep pays nothing per
   hole; the next query rebuilds it. *)

let clear_free_list t =
  let h = t.free in
  Vec.clear h.pairs;
  h.words <- 0;
  h.stale <- true

let push_free t ~addr ~words =
  let h = t.free in
  Vec.push h.pairs addr;
  Vec.push h.pairs words;
  h.words <- h.words + words;
  h.stale <- true

let free_words t = t.free.words

let holes t =
  let h = t.free in
  List.init (Vec.length h.pairs / 2) (fun k ->
      (Vec.get h.pairs (2 * k), Vec.get h.pairs ((2 * k) + 1)))

let[@inline] imax (a : int) b = if a >= b then a else b

let rebuild h =
  let n = Vec.length h.pairs / 2 in
  let cap = ref 1 in
  while !cap < n do
    cap := 2 * !cap
  done;
  let cap = !cap in
  if Array.length h.tree <> 2 * cap then h.tree <- Array.make (2 * cap) 0
  else Array.fill h.tree cap cap 0;
  let tree = h.tree in
  for k = 0 to n - 1 do
    tree.(cap + k) <- Vec.get h.pairs ((2 * k) + 1)
  done;
  for j = cap - 1 downto 1 do
    tree.(j) <- imax tree.(2 * j) tree.((2 * j) + 1)
  done;
  h.stale <- false

let set_leaf h k words =
  let tree = h.tree in
  let j = ref ((Array.length tree / 2) + k) in
  tree.(!j) <- words;
  while !j > 1 do
    j := !j / 2;
    tree.(!j) <- imax tree.(2 * !j) tree.((2 * !j) + 1)
  done

let[@inline] admits words ~size =
  words = size || words >= size + Object_model.header_words

(* The first slot under node [j] whose hole admits [size], or -1:
   left-first, skipping subtrees whose largest hole is under [size],
   and backing out of one whose largest hole only has an
   unrepresentable remainder when no exact fit hides under it. *)
let rec first_fit tree ~cap j ~size =
  let words = tree.(j) in
  if words < size then -1
  else if j >= cap then if admits words ~size then j - cap else -1
  else
    let k = first_fit tree ~cap (2 * j) ~size in
    if k >= 0 then k else first_fit tree ~cap ((2 * j) + 1) ~size

let fits_free t ~size =
  let h = t.free in
  h.words >= size
  && begin
       if h.stale then rebuild h;
       let root = h.tree.(1) in
       admits root ~size
       || (root > size && first_fit h.tree ~cap:(Array.length h.tree / 2) 1 ~size >= 0)
     end

let fit_or_null t mem ~size =
  let h = t.free in
  if h.words < size then Addr.null
  else begin
    if h.stale then rebuild h;
    let k = first_fit h.tree ~cap:(Array.length h.tree / 2) 1 ~size in
    if k < 0 then Addr.null
    else begin
      let a = Vec.get h.pairs (2 * k) in
      let words = Vec.get h.pairs ((2 * k) + 1) in
      if words = size then begin
        (* Exact fit: drop the pair (swap-remove keeps the vec dense). *)
        let last = Vec.length h.pairs - 2 in
        Vec.set h.pairs (2 * k) (Vec.get h.pairs last);
        Vec.set h.pairs ((2 * k) + 1) (Vec.get h.pairs (last + 1));
        Vec.truncate h.pairs last;
        set_leaf h (last / 2) 0;
        if 2 * k < last then set_leaf h k (Vec.get h.pairs ((2 * k) + 1))
      end
      else begin
        (* Split: the remainder stays a filler object in place. *)
        let rem = words - size in
        Memory.set mem (a + size) ((rem - Object_model.header_words) lsl 1);
        Memory.fill mem ~dst:(a + size + 1) ~len:(rem - 1) 1;
        Vec.set h.pairs (2 * k) (a + size);
        Vec.set h.pairs ((2 * k) + 1) rem;
        set_leaf h k rem;
        t.objects <- t.objects + 1
      end;
      h.words <- h.words - size;
      (* The hole's words are odd immediates; the allocation contract
         is zeroed (null-field) memory, like a fresh bump. *)
      Memory.fill mem ~dst:a ~len:size 0;
      a
    end
  end

(* Bump first (the common case, identical to the copying allocator),
   then fall back to the free list; [Addr.null] when neither fits. *)
let alloc_or_null t mem ~size =
  let addr = bump_or_null t ~size in
  if addr <> Addr.null then addr
  else if t.free.words >= size && not t.sealed then
    fit_or_null t mem ~size
  else Addr.null

(* Used words of frame [fi]: retired frames have a recorded extent; the
   frame under the cursor extends to the cursor. *)
let used_of_frame t mem fi =
  if fi < Vec.length t.frame_used then Vec.get t.frame_used fi
  else if fi = frame_count t - 1 && t.cursor <> Addr.null then
    t.cursor - Memory.frame_base mem (Vec.get t.frames fi)
  else 0

let scan_pos t = { fi = frame_count t - 1; addr = t.cursor }
let start_pos (_ : t) = { fi = 0; addr = Addr.null }

(* Normalise a position: ensure it points at a real object or the
   frontier. A fresh increment (no frames) normalises to the frontier
   trivially. *)
let normalise t mem pos =
  if frame_count t = 0 then ()
  else begin
    if pos.addr = Addr.null then begin
      pos.fi <- 0;
      pos.addr <- Memory.frame_base mem (Vec.get t.frames 0)
    end;
    (* Skip over frame seams: if we reached the used extent of the
       current frame and further frames exist, hop to the next base. *)
    let continue = ref true in
    while !continue do
      let base = Memory.frame_base mem (Vec.get t.frames pos.fi) in
      let extent = base + used_of_frame t mem pos.fi in
      if pos.addr >= extent && pos.fi < frame_count t - 1 then begin
        pos.fi <- pos.fi + 1;
        pos.addr <- Memory.frame_base mem (Vec.get t.frames pos.fi)
      end
      else continue := false
    done
  end

let scan_pending t mem pos =
  (not t.pinned)
  && frame_count t > 0
  && begin
       normalise t mem pos;
       pos.fi < frame_count t - 1 || pos.addr < t.cursor
     end

let scan_step t mem pos =
  if not (scan_pending t mem pos) then
    invalid_arg "Increment.scan_step: nothing pending";
  (* After normalisation pos.addr points at an object header. *)
  let addr = pos.addr in
  let size = Object_model.size_of mem addr in
  pos.addr <- pos.addr + size;
  normalise t mem pos;
  addr

(* [scan_pending] + [scan_step] fused: one normalisation per object
   instead of three (the Cheney drain calls this per copied object).
   The object's size comes straight off its header word — objects in a
   destination increment are never forwarded, and the increment's
   frames are live, so the unchecked load is sound. The common case —
   a position inside the cursor's frame, short of the cursor — is
   already normal, so it steps without calling [normalise]. *)
let[@inline] step_over mem pos addr =
  pos.addr <- addr + (Memory.unsafe_get mem addr lsr 1) + Object_model.header_words;
  addr

let scan_next t mem pos =
  let addr = pos.addr in
  if
    addr <> Addr.null && addr < t.cursor
    && pos.fi = frame_count t - 1
    && not t.pinned
  then step_over mem pos addr
  else if t.pinned || frame_count t = 0 then Addr.null
  else begin
    normalise t mem pos;
    if pos.fi < frame_count t - 1 || pos.addr < t.cursor then
      step_over mem pos pos.addr
    else Addr.null
  end

let iter_objects t mem f =
  if t.pinned then f (base_object t mem)
  else begin
    let pos = start_pos t in
    while scan_pending t mem pos do
      f (scan_step t mem pos)
    done
  end

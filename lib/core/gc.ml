type t = State.t

exception Out_of_memory = State.Out_of_memory

let stamp_boot_frames st =
  List.iter
    (fun frame ->
      Frame_table.set st.State.ftab ~frame ~stamp:Frame_table.immortal_stamp
        ~incr:(-1) ~pinned:false)
    (Boot_space.frames st.State.boot)

let create ?(frame_log_words = 10) ?gc_domains ~config ~heap_bytes () =
  let frame_bytes = (1 lsl frame_log_words) * Addr.bytes_per_word in
  let heap_frames = max 4 ((heap_bytes + frame_bytes - 1) / frame_bytes) in
  let policy =
    match Policy.resolve config with
    | Ok p -> p
    | Error e -> invalid_arg ("Gc.create: " ^ e)
  in
  let strategy =
    match Strategy.resolve config with
    | Ok s -> s
    | Error e -> invalid_arg ("Gc.create: " ^ e)
  in
  (match gc_domains with
  | None | Some 1 -> ()
  | Some n ->
    invalid_arg
      (Printf.sprintf "Gc.create: gc_domains must be 1 (got %d)" n));
  let st = State.create ~strategy ~config ~policy ~heap_frames ~frame_log_words () in
  stamp_boot_frames st;
  st

let register_type st ~name =
  let id = Type_registry.register st.State.types ~name in
  (* Type registration may have mapped new boot frames; keep their
     stamps immortal. *)
  stamp_boot_frames st;
  id

let tib_value st ty = Type_registry.tib_value st.State.types ty

let alloc_hooks hs ~addr ~tib ~nfields =
  List.iter (fun (h : State.hooks) -> h.State.on_alloc ~addr ~tib ~nfields) hs

let[@inline] finish_alloc_tib st ~tib ~nfields ~size addr =
  Object_model.init st.State.mem addr ~tib ~nfields;
  let stats = st.State.stats in
  stats.Gc_stats.words_allocated <- stats.Gc_stats.words_allocated + size;
  stats.Gc_stats.objects_allocated <- stats.Gc_stats.objects_allocated + 1;
  (* The TIB initialising write goes through the write barrier, exactly
     the Jikes RVM behaviour that motivates the nursery filter. *)
  Write_barrier.record st ~slot:(Object_model.tib_addr addr)
    ~target:(Value.to_addr tib);
  (match st.State.hooks with
  | [] -> ()
  | hs -> alloc_hooks hs ~addr ~tib ~nfields);
  addr

let finish_alloc st ~ty ~nfields ~size addr =
  finish_alloc_tib st ~tib:(tib_value st ty) ~nfields ~size addr

(* The allocation fast path, shared by [alloc] and the bytecode VM:
   the nursery bump hit, nothing else. Returns [Addr.null] whenever the
   slow path must run — negative field count, LOS-sized request, no
   open nursery, or no room — having had no side effect at all
   ([bump_or_null] is side-effect-free on failure), so the fallback to
   [alloc_slow] replays from the same state and the two paths compose
   to exactly the slow path's behaviour: same stats, same barrier
   traffic, same hooks. *)
let[@inline] alloc_small_fast st ~tib ~nfields =
  let size = Object_model.size_words ~nfields in
  let large =
    match st.State.config.Config.los_threshold with
    | Some threshold -> size >= threshold
    | None -> false
  in
  if nfields < 0 || large then Addr.null
  else
    match Belt.back st.State.belts.(0) with
    | Some inc when not inc.Increment.sealed ->
      let addr = Increment.bump_or_null inc ~size in
      if addr = Addr.null then Addr.null
      else finish_alloc_tib st ~tib ~nfields ~size addr
    | _ -> Addr.null

(* The full allocation path: the LOS, or the policy's trigger cascade
   ([Schedule.prepare_alloc]) followed by a bump or free-list fit. *)
let alloc_slow st ~ty ~nfields =
  let size = Object_model.size_words ~nfields in
  match st.State.config.Config.los_threshold with
  | Some threshold when size >= threshold ->
    let inc = Schedule.alloc_large st ~size in
    finish_alloc st ~ty ~nfields ~size (Increment.base_object inc st.State.mem)
  | _ ->
    let nur = Schedule.prepare_alloc st ~size in
    (* Bump, falling back to the increment's free list (mark-sweep
       holes); identical to a plain bump when the list is empty. *)
    let addr = Increment.alloc_or_null nur st.State.mem ~size in
    if addr = Addr.null then
      (* prepare_alloc guarantees room; reaching here is a scheduler bug. *)
      invalid_arg "Gc.alloc: internal error: nursery bump failed after prepare";
    finish_alloc st ~ty ~nfields ~size addr

let alloc st ~ty ~nfields =
  if nfields < 0 then invalid_arg "Gc.alloc: negative field count";
  let addr = alloc_small_fast st ~tib:(tib_value st ty) ~nfields in
  if addr <> Addr.null then addr else alloc_slow st ~ty ~nfields

let alloc_pretenured st ~ty ~nfields ~belt =
  if nfields < 0 then invalid_arg "Gc.alloc_pretenured: negative field count";
  let size = Object_model.size_words ~nfields in
  match st.State.config.Config.los_threshold with
  | Some threshold when size >= threshold ->
    (* Large objects are already segregated; the LOS overrides. *)
    let inc = Schedule.alloc_large st ~size in
    finish_alloc st ~ty ~nfields ~size (Increment.base_object inc st.State.mem)
  | _ ->
    let inc = Schedule.prepare_alloc_in st ~belt ~size in
    let addr = Increment.alloc_or_null inc st.State.mem ~size in
    if addr = Addr.null then
      invalid_arg "Gc.alloc_pretenured: internal error: bump failed";
    finish_alloc st ~ty ~nfields ~size addr

(* One checked header read decides the store: a forwarded object or an
   out-of-range field takes [Object_model.set_field], which raises its
   usual message; otherwise the field is stored directly. *)
let write st obj i v =
  let mem = st.State.mem in
  let header = Memory.get mem obj in
  if header land 1 = 1 || i < 0 || i >= header lsr 1 then
    Object_model.set_field mem obj i v
  else Memory.set mem (Object_model.field_addr obj i) v;
  if Value.is_ref v then
    Write_barrier.record st ~slot:(Object_model.field_addr obj i)
      ~target:(Value.to_addr v);
  match st.State.hooks with
  | [] -> ()
  | hs -> List.iter (fun h -> h.State.on_write ~obj ~field:i ~value:v) hs

let read st obj i = Object_model.get_field st.State.mem obj i
let nfields st obj = Object_model.nfields st.State.mem obj
let type_of st obj = Type_registry.id_of_tib st.State.types (Object_model.tib st.State.mem obj)
let roots st = st.State.roots
let stats st = st.State.stats
let config st = st.State.config
let policy_name st = st.State.policy.State.policy_name
let strategy_name st = st.State.strategy.State.strategy_name
let collect st = ignore (Schedule.collect_now st ~reason:Gc_stats.Forced)
let full_collect st = ignore (Schedule.full_collect st)
let heap_frames st = st.State.heap_frames
let frame_bytes st = Memory.frame_bytes st.State.mem
let heap_bytes st = heap_frames st * frame_bytes st
let frames_used st = st.State.frames_used
let words_allocated st = st.State.stats.Gc_stats.words_allocated
let bytes_allocated st = words_allocated st * Addr.bytes_per_word
let live_words_upper_bound st = State.live_words st
let reserve_frames st = Copy_reserve.frames st
let state st = st
let register_site st ~name = State.register_site st ~name
let set_alloc_site st site = st.State.alloc_site <- site
let alloc_site st = st.State.alloc_site
let site_name st id = State.site_name st id
let site_count st = State.site_count st
let type_name st ty = Type_registry.name st.State.types ty

let pp_heap fmt st =
  Format.fprintf fmt "@[<v>heap: %d/%d frames used, reserve %d, remsets %d entries"
    st.State.frames_used st.State.heap_frames (Copy_reserve.frames st)
    (Remset.total_entries st.State.remsets);
  if st.State.policy.State.barrier = State.Barrier_cards then
    Format.fprintf fmt ", %d dirty cards" (Card_table.dirty_count st.State.cards);
  Array.iter
    (fun belt ->
      let name =
        match State.los_belt st with
        | Some b when b = Belt.index belt -> "LOS"
        | _ -> string_of_int (Belt.index belt)
      in
      Format.fprintf fmt "@,belt %s (%d increments):" name (Belt.length belt);
      Belt.iter belt (fun (i : Increment.t) ->
          Format.fprintf fmt "@,  inc %d stamp=%d frames=%d words=%d%s%s" i.Increment.id
            i.Increment.stamp (Increment.frame_count i) i.Increment.words_used
            (if i.Increment.sealed then " sealed" else "")
            (if i.Increment.pinned then " pinned" else "")))
    st.State.belts;
  Format.fprintf fmt "@]"

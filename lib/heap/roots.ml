(* Root slots are the hottest data structure in the system: every
   interpreter operand push/pop and every rooted temporary goes
   through the shadow stack. Both slot arrays are therefore
   monomorphic [int array]s ([Value.t = int]) manipulated with
   inline-annotated accessors — a polymorphic vector would compile
   every store to a [caml_modify] call, which measurably dominates the
   bytecode VM's dispatch loop. *)

type t = {
  mutable globals : int array;
  mutable global_count : int;
  mutable stack : int array;
  mutable sp : int; (* depth: slots [0, sp) are live *)
}

type global = int

let create () =
  {
    globals = Array.make 8 Value.null;
    global_count = 0;
    stack = Array.make 64 Value.null;
    sp = 0;
  }

(* Out-of-line growth keeps the push fast path small enough to inline. *)
let grow_stack t =
  let data = Array.make (2 * Array.length t.stack) Value.null in
  Array.blit t.stack 0 data 0 t.sp;
  t.stack <- data

let new_global t v =
  if t.global_count = Array.length t.globals then begin
    let data = Array.make (2 * Array.length t.globals) Value.null in
    Array.blit t.globals 0 data 0 t.global_count;
    t.globals <- data
  end;
  let id = t.global_count in
  t.globals.(id) <- v;
  t.global_count <- id + 1;
  id

let bad_global name g =
  invalid_arg (Printf.sprintf "Roots.%s: bad global slot %d" name g)

let[@inline] get_global t g =
  if g < 0 || g >= t.global_count then bad_global "get_global" g;
  Array.unsafe_get t.globals g

let[@inline] set_global t g v =
  if g < 0 || g >= t.global_count then bad_global "set_global" g;
  Array.unsafe_set t.globals g v

let global_count t = t.global_count
let global_of_int i = i

let[@inline] push t v =
  if t.sp = Array.length t.stack then grow_stack t;
  Array.unsafe_set t.stack t.sp v;
  t.sp <- t.sp + 1

let underflow name = invalid_arg (Printf.sprintf "Roots.%s: stack underflow" name)

let[@inline] pop t =
  if t.sp = 0 then underflow "pop";
  t.sp <- t.sp - 1;
  Array.unsafe_get t.stack t.sp

let stack_oob t name i =
  invalid_arg (Printf.sprintf "Roots.%s: index %d out of bounds [0,%d)" name i t.sp)

let[@inline] peek t i =
  let j = t.sp - 1 - i in
  if j < 0 || j >= t.sp then stack_oob t "peek" j;
  Array.unsafe_get t.stack j

let[@inline] set_peek t i v =
  let j = t.sp - 1 - i in
  if j < 0 || j >= t.sp then stack_oob t "set_peek" j;
  Array.unsafe_set t.stack j v

let[@inline] stack_get t i =
  if i < 0 || i >= t.sp then stack_oob t "stack_get" i;
  Array.unsafe_get t.stack i

let[@inline] stack_set t i v =
  if i < 0 || i >= t.sp then stack_oob t "stack_set" i;
  Array.unsafe_set t.stack i v

let[@inline] mark t = t.sp
let[@inline] release t m = if m < t.sp then t.sp <- m
let[@inline] depth t = t.sp

let iter_update t f =
  for i = 0 to t.global_count - 1 do
    t.globals.(i) <- f t.globals.(i)
  done;
  for i = 0 to t.sp - 1 do
    t.stack.(i) <- f t.stack.(i)
  done

let iter t f =
  for i = 0 to t.global_count - 1 do
    f t.globals.(i)
  done;
  for i = 0 to t.sp - 1 do
    f t.stack.(i)
  done

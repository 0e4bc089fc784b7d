(** The Beltlang bytecode VM.

    Drop-in replacement for {!Interp}: same heap representation, same
    output, and — by construction — the same [Gc_stats] and
    sanitizer-visible event stream on every program (the operand
    stack is the Roots shadow stack, and allocation and reference
    stores go through the same [Gc.alloc_small_fast] and
    [Write_barrier.record] fast paths as the generic [Gc] entry
    points). What changes is speed: a flat code stream, a jump-table
    dispatch loop, static frame offsets for locals, and cached-TIB
    type checks. The differential suite in [test_bytecode] pins the
    equivalence. *)

type t

exception Runtime_error of string
(** The interpreter's exception, re-exported: both engines raise the
    same errors with the same messages. *)

val create : Beltway.Gc.t -> t
(** A VM instance over the given heap. Globals and compiled lambdas
    persist across [run] calls, as in {!Interp.create}. *)

val gc : t -> Beltway.Gc.t

val run : t -> Ast.program -> unit
(** Compile to bytecode and execute all top-level forms.
    @raise Runtime_error on dynamic type errors or arity mismatches.
    @raise Ast.Compile_error when the program exceeds a bytecode limit.
    @raise Beltway.Gc.Out_of_memory when the heap is too small. *)

val run_compiled : t -> Bytecode.program -> unit
(** Execute an already-compiled program. *)

val run_string : t -> string -> unit
(** Parse, compile and run.
    @raise Sexp.Parse_error / Ast.Compile_error accordingly. *)

val output : t -> string
(** Everything printed by [print] so far. *)

val clear_output : t -> unit

val global : t -> string -> Value.t option
(** Current value of a top-level definition (for tests). *)

val instructions : t -> int
(** Bytecode instructions dispatched so far, cumulative across runs —
    the throughput denominator for the interpreter benchmarks. *)

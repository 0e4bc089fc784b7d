(** The reclamation-strategy registry.

    A [State.strategy] decides {e how} the increments of a plan are
    reclaimed — Cheney evacuation (the paper's collector), bitmap
    mark-sweep, or threaded mark-compact — orthogonally to the
    [Policy], which decides what to collect and when. This module
    constructs the strategy records, owns the registry behind
    [+strategy:NAME] / [--strategy NAME], and mirrors [Policy]'s
    registry surface; [Collector] interprets the installed record. *)

val copying : State.strategy
(** Cheney evacuation — [State.copying_strategy], the default.
    Byte-identical to the pre-strategy collector for every existing
    configuration, including under [--gc-domains]. *)

val marksweep : State.strategy
(** Bitmap mark-sweep: a side mark bitmap ([Memory.ensure_marks]) plus
    an explicit mark stack traces the plan in place; dead runs become
    filler objects indexed by per-increment free lists
    ([Increment.fit_or_null]); surviving increments are {e logically}
    promoted (restamped onto their destination belt without moving a
    word). Needs zero copy reserve. *)

val markcompact : State.strategy
(** Threaded (Jonkers) mark-compact: the same mark phase, then pointer
    threading and a slide pass over the increment's own frames using
    [Memory.blit]; empty tail frames are freed. Needs zero copy
    reserve. *)

type info = {
  key : string;  (** registry name *)
  strategy : State.strategy;
  summary : string;  (** one-line description for [--strategy list] *)
  exemplar_config : string;  (** a config string that exercises it *)
}

val infos : info list
val registry : (string * State.strategy) list
val names : string list

val describe : string -> string
(** Summary of a registered strategy.
    @raise Invalid_argument on an unknown key. *)

val exemplar : string -> string
(** Exemplar configuration of a registered strategy.
    @raise Invalid_argument on an unknown key. *)

val name : State.strategy -> string

val default_name : string
(** ["copying"]: the strategy selected when the configuration names
    none. *)

val resolve : Config.t -> (State.strategy, string) result
(** The strategy a configuration selects: [cfg.strategy] looked up in
    the registry, or the default copying strategy when unset. *)

val resolve_exn : Config.t -> State.strategy
(** {!resolve}, raising [Invalid_argument] on an unknown name. *)

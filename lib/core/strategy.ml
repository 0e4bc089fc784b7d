(* The reclamation-strategy registry: how a plan's increments are
   reclaimed, orthogonal to [Policy] (what to collect and when). The
   [State.strategy] record type lives in [State] for the same
   mutual-recursion-by-placement reason as [State.policy]; this module
   constructs the records, owns the registry and resolves config
   strings, exactly mirroring [Policy]. [Collector] interprets the
   installed record's [strategy_kind] once per collection. *)

let copying = State.copying_strategy

let marksweep =
  {
    State.strategy_name = "marksweep";
    strategy_kind = State.Strategy_marksweep;
    strategy_moving = false;
    strategy_needs_reserve = false;
    strategy_reserve = (fun _ -> 0);
  }

let markcompact =
  {
    State.strategy_name = "markcompact";
    strategy_kind = State.Strategy_markcompact;
    (* Moving, but strictly within the increment's own frames (a
       slide), so no destination frames are reserved. *)
    strategy_moving = true;
    strategy_needs_reserve = false;
    strategy_reserve = (fun _ -> 0);
  }

(* ---- registry ------------------------------------------------------ *)

type info = {
  key : string;
  strategy : State.strategy;
  summary : string;
  exemplar_config : string;
}

let infos =
  [
    {
      key = "copying";
      strategy = copying;
      summary =
        "Cheney evacuation into fresh destination increments (the paper's \
         collector; the default — byte-identical to the pre-strategy \
         implementation)";
      exemplar_config = "25.25.100";
    };
    {
      key = "marksweep";
      strategy = marksweep;
      summary =
        "bitmap mark + free-list sweep: survivors stay in place (logical \
         promotion restamps their increment), dead runs become reusable \
         holes; zero copy reserve";
      exemplar_config = "25.25.100+strategy:marksweep";
    };
    {
      key = "markcompact";
      strategy = markcompact;
      summary =
        "bitmap mark + threaded (Jonkers) compaction: survivors slide to \
         the front of their own frames, empty tail frames are freed; zero \
         copy reserve";
      exemplar_config = "25.25.100+strategy:markcompact";
    };
  ]

let registry : (string * State.strategy) list =
  List.map (fun i -> (i.key, i.strategy)) infos

let names = List.map (fun i -> i.key) infos

let info_exn key =
  match List.find_opt (fun i -> i.key = key) infos with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Strategy: unknown strategy %S" key)

let describe key = (info_exn key).summary
let exemplar key = (info_exn key).exemplar_config
let name (s : State.strategy) = s.State.strategy_name

(* ---- resolution ---------------------------------------------------- *)

let default_name = "copying"

let resolve (cfg : Config.t) =
  let key =
    match cfg.Config.strategy with Some n -> n | None -> default_name
  in
  match List.assoc_opt key registry with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown strategy %S (registered: %s)" key
         (String.concat ", " names))

let resolve_exn cfg =
  match resolve cfg with
  | Ok s -> s
  | Error e -> invalid_arg ("Strategy.resolve: " ^ e)

(* Per-layer attribution of a traced rep. The rep runs with telemetry on and
   every trace event buffered in memory; afterwards each span's self time
   (its duration minus what its direct children cover) is charged to the
   layer the span belongs to. Bench spans ("bench.*", see {!Workloads})
   wrap the calls into each layer from outside; the engine, server and
   durability layers add their own spans inside them. *)

module J = Egglog.Telemetry.Json

let layers =
  [
    "frontend"; "command"; "loop"; "search"; "apply"; "rebuild"; "extract"; "score"; "server";
    "journal"; "checkpoint"; "client"; "bench";
  ]

let layer_of_span = function
  | "bench.parse" -> "frontend"
  | "bench.command" | "bench.facts" -> "command"
  | "bench.run" | "engine.iteration" -> "loop"
  | "engine.search" -> "search"
  | "engine.apply" -> "apply"
  | "engine.rebuild" | "db.rebuild" -> "rebuild"
  | "bench.extract" -> "extract"
  | "bench.score" -> "score"
  | "server.request" -> "server"
  | "journal.append" -> "journal"
  | "checkpoint.write" -> "checkpoint"
  | "bench.request" -> "client"
  | _ -> "bench"

type t = {
  rep_s : float;  (** duration of the measured region ("bench.rep") *)
  self_s : (string * float) list;  (** per layer, inside the measured region *)
  parse_s : float;  (** every "bench.parse" span, measured region or not *)
  spans : int;
  balanced : bool;  (** every end matches the innermost open begin *)
  min_self_s : float;  (** smallest self time: children never exceed their parent when >= 0 *)
}

type frame = { name : string; mutable children_s : float; in_rep : bool }

let analyse lines =
  let self = Hashtbl.create 16 in
  let stack = ref [] and balanced = ref true and spans = ref 0 in
  let rep_s = ref 0.0 and parse_s = ref 0.0 and min_self = ref Float.infinity in
  List.iter
    (fun line ->
      let ev = J.parse line in
      let str k = match J.member k ev with Some (J.Str s) -> s | _ -> "" in
      (* pool workers tag their events with a domain; they open no spans *)
      if J.member "dom" ev = None then
        match str "ev" with
        | "b" ->
          let name = str "name" in
          let in_rep = name = "bench.rep" || match !stack with f :: _ -> f.in_rep | [] -> false in
          stack := { name; children_s = 0.0; in_rep } :: !stack
        | "e" -> (
          let dur = match J.member "dur" ev with Some (J.Float d) -> d | Some (J.Int d) -> float_of_int d | _ -> 0.0 in
          match !stack with
          | f :: rest when f.name = str "name" ->
            stack := rest;
            incr spans;
            let s = dur -. f.children_s in
            min_self := Float.min !min_self s;
            (match rest with p :: _ -> p.children_s <- p.children_s +. dur | [] -> ());
            if f.name = "bench.rep" then rep_s := !rep_s +. dur;
            if f.name = "bench.parse" then parse_s := !parse_s +. dur;
            if f.in_rep then begin
              let l = layer_of_span f.name in
              Hashtbl.replace self l (s +. Option.value (Hashtbl.find_opt self l) ~default:0.0)
            end
          | _ -> balanced := false)
        | _ -> ())
    lines;
  {
    rep_s = !rep_s;
    self_s = List.map (fun l -> (l, Option.value (Hashtbl.find_opt self l) ~default:0.0)) layers;
    parse_s = !parse_s;
    spans = !spans;
    balanced = !balanced && !stack = [];
    min_self_s = (if !spans = 0 then 0.0 else !min_self);
  }

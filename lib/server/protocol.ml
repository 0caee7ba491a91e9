module Json = Egglog.Telemetry.Json

type error_kind =
  | Malformed_frame
  | Too_large
  | Parse_error
  | Engine_error
  | Budget
  | Deadline
  | Quota
  | Memory
  | Overload
  | Session_limit
  | Bad_session
  | Shutting_down
  | Recovery_failed
  | Unsupported
  | Internal

let kind_to_string = function
  | Malformed_frame -> "malformed-frame"
  | Too_large -> "too-large"
  | Parse_error -> "parse-error"
  | Engine_error -> "engine-error"
  | Budget -> "budget"
  | Deadline -> "deadline"
  | Quota -> "quota"
  | Memory -> "memory"
  | Overload -> "overload"
  | Session_limit -> "session-limit"
  | Bad_session -> "bad-session"
  | Shutting_down -> "shutting-down"
  | Recovery_failed -> "recovery-failed"
  | Unsupported -> "unsupported"
  | Internal -> "internal"

exception Reject of { kind : error_kind; message : string; retry_after_ms : int option }

let reject ?retry_after_ms kind fmt =
  Format.kasprintf (fun message -> raise (Reject { kind; message; retry_after_ms })) fmt

type op =
  | Ping
  | Hello
  | Open_session of { durable : bool }
  | Run of {
      program : string;
      node_limit : int option;
      time_limit_ms : int option;
      memory_limit : int option;
    }
  | Dump
  | Stats
  | Close_session
  | Metrics of { prometheus : bool }
  | Dump_flightrec

type request = { rq_id : Json.t; rq_session : string option; rq_op : op }

let malformed fmt = reject Malformed_frame fmt

(* ---- field accessors over a parsed frame ---- *)

let opt_field obj name =
  match Json.member name obj with Some Json.Null | None -> None | Some v -> Some v

let str_field obj name =
  match opt_field obj name with
  | None -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> malformed "field %S must be a string" name

let int_field obj name =
  match opt_field obj name with
  | None -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> malformed "field %S must be an integer" name

let pos_field obj name =
  match int_field obj name with
  | Some i when i <= 0 -> malformed "field %S must be positive" name
  | v -> v

let bool_field obj name =
  match opt_field obj name with
  | None -> None
  | Some (Json.Bool b) -> Some b
  | Some _ -> malformed "field %S must be a boolean" name

let id_field obj =
  match opt_field obj "id" with
  | None -> Json.Null
  | Some ((Json.Int _ | Json.Str _) as v) -> v
  | Some _ -> malformed "field \"id\" must be an integer or a string"

let frame_id line =
  match Json.parse line with
  | exception Json.Parse_error _ -> Json.Null
  | obj -> (
    match opt_field obj "id" with
    | Some ((Json.Int _ | Json.Str _) as v) -> v
    | Some _ | None -> Json.Null)

let valid_session_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

let parse_request line =
  let obj =
    match Json.parse line with
    | Json.Obj _ as o -> o
    | _ -> malformed "frame is not a JSON object"
    | exception Json.Parse_error msg -> malformed "frame is not JSON: %s" msg
  in
  let rq_id = id_field obj in
  let rq_session = str_field obj "session" in
  (match rq_session with
   | Some s when not (valid_session_name s) ->
     reject Bad_session "invalid session name %S (want [A-Za-z0-9_-]{1,64})" s
   | Some _ | None -> ());
  let rq_op =
    match str_field obj "op" with
    | None -> malformed "missing field \"op\""
    | Some "ping" -> Ping
    | Some "hello" -> Hello
    | Some "open-session" ->
      Open_session { durable = Option.value (bool_field obj "durable") ~default:false }
    | Some "run" ->
      let program =
        match str_field obj "program" with
        | Some p -> p
        | None -> malformed "op \"run\" needs a \"program\" string"
      in
      Run
        {
          program;
          node_limit = pos_field obj "node_limit";
          time_limit_ms = pos_field obj "time_limit_ms";
          memory_limit = pos_field obj "memory_limit";
        }
    | Some "dump" -> Dump
    | Some "stats" -> Stats
    | Some "close-session" -> Close_session
    | Some "metrics" -> (
      match str_field obj "format" with
      | None | Some "json" -> Metrics { prometheus = false }
      | Some "prometheus" -> Metrics { prometheus = true }
      | Some f -> malformed "unknown metrics format %S (want \"json\" or \"prometheus\")" f)
    | Some "dump-flightrec" -> Dump_flightrec
    | Some op -> reject Unsupported "unknown op %S" op
  in
  { rq_id; rq_session; rq_op }

let needs_session = function
  | Ping | Hello | Metrics _ | Dump_flightrec -> false
  | Open_session _ | Run _ | Dump | Stats | Close_session -> true

(* Replies carry the ambient trace id the daemon assigned to the request
   being answered (absent outside the daemon's execute wrapper), so a
   client can quote the id that tags the request's span in traces,
   flight-recorder dumps and the slow-request log. *)
let trace_field () =
  match Egglog.Telemetry.current_trace_id () with
  | None -> []
  | Some tid -> [ ("trace_id", Json.Str tid) ]

let ok_reply ~id fields =
  Json.to_string (Json.Obj (("id", id) :: ("ok", Json.Bool true) :: (trace_field () @ fields)))

let error_reply ~id ~kind ~message ?retry_after_ms () =
  let err =
    [ ("kind", Json.Str (kind_to_string kind)); ("message", Json.Str message) ]
    @ match retry_after_ms with Some ms -> [ ("retry_after_ms", Json.Int ms) ] | None -> []
  in
  Json.to_string
    (Json.Obj
       (("id", id) :: ("ok", Json.Bool false) :: (trace_field () @ [ ("error", Json.Obj err) ])))

let reject_reply ~id e =
  match e with
  | Reject { kind; message; retry_after_ms } ->
    error_reply ~id ~kind ~message ?retry_after_ms ()
  | Egglog.Journal.Journal_error message -> error_reply ~id ~kind:Internal ~message ()
  | e -> error_reply ~id ~kind:Internal ~message:(Printexc.to_string e) ()

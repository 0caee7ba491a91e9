module E = Egglog

type session = {
  s_name : string;
  s_engine : E.Engine.t;
  mutable s_durable : E.Durable.t option;
  mutable s_last_used : float;
  mutable s_requests : int;
  (* private (unregistered) histogram: this session's request latency,
     never mixed into the global registry snapshot *)
  s_hist : E.Telemetry.histogram;
}

(* A name whose journal failed to recover is quarantined, not recreated:
   handing out a fresh empty session under a name with (unreadable)
   durable history would silently fork that history. *)
type entry = Live of session | Quarantined of string

type t = {
  data_dir : string option;
  max_sessions : int;
  checkpoint_every : int option;
  make_engine : unit -> E.Engine.t;
  table : (string, entry) Hashtbl.t;
  (* eviction counts keyed by session name; kept across re-opens so the
     metrics reply can attribute churn to the name, not the incarnation *)
  evictions : (string, int) Hashtbl.t;
}

let c_opened = E.Telemetry.counter "server.sessions_opened"
let c_recovered = E.Telemetry.counter "server.sessions_recovered"
let c_evicted = E.Telemetry.counter "server.sessions_evicted"

let note_eviction t name =
  E.Telemetry.bump c_evicted 1;
  Hashtbl.replace t.evictions name
    (1 + Option.value (Hashtbl.find_opt t.evictions name) ~default:0)

let evictions_of t name = Option.value (Hashtbl.find_opt t.evictions name) ~default:0

let create ~data_dir ~max_sessions ~checkpoint_every ~make_engine =
  {
    data_dir;
    max_sessions;
    checkpoint_every;
    make_engine;
    table = Hashtbl.create 16;
    evictions = Hashtbl.create 16;
  }

let journal_path t name =
  Option.map (fun dir -> Filename.concat dir (name ^ ".journal")) t.data_dir

let live_count t =
  Hashtbl.fold (fun _ e acc -> match e with Live _ -> acc + 1 | Quarantined _ -> acc) t.table 0

let live_names t =
  List.sort String.compare
    (Hashtbl.fold
       (fun name e acc -> match e with Live _ -> name :: acc | Quarantined _ -> acc)
       t.table [])

let recover_one t name path now =
  let engine = t.make_engine () in
  match E.Durable.recover engine ~journal_path:path ~checkpoint_every:t.checkpoint_every with
  | durable, report ->
    let s =
      {
        s_name = name;
        s_engine = engine;
        s_durable = Some durable;
        s_last_used = now;
        s_requests = 0;
        s_hist = E.Telemetry.hist_create ();
      }
    in
    Hashtbl.replace t.table name (Live s);
    E.Telemetry.bump c_recovered 1;
    Ok report
  | exception
      (( E.Journal.Journal_error _ | E.Serialize.Load_error _ | E.Engine.Egglog_error _
       | Sys_error _ | Failure _ ) as e) ->
    let msg =
      match e with
      | E.Journal.Journal_error msg | E.Serialize.Load_error msg -> msg
      | e -> Printexc.to_string e
    in
    Hashtbl.replace t.table name (Quarantined msg);
    Error msg

let recover_existing t =
  match t.data_dir with
  | None -> []
  | Some dir ->
    let files = try Sys.readdir dir with Sys_error _ -> [||] in
    let names =
      Array.to_list files
      |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".journal" f)
      |> List.filter Protocol.valid_session_name
      |> List.sort String.compare
    in
    let now = E.Telemetry.now () in
    List.map
      (fun name ->
        (name, recover_one t name (Filename.concat dir (name ^ ".journal")) now))
      names

(* Attach a journal to a session that may already hold state: the journal
   starts with a checkpoint of it. *)
let make_durable t s =
  match journal_path t s.s_name with
  | None ->
    Protocol.reject Protocol.Unsupported
      "durable sessions need the daemon started with --data-dir"
  | Some _ when E.Engine.scope_depth s.s_engine > 0 ->
    Protocol.reject Protocol.Unsupported
      "cannot make a session durable inside an open (push) scope; pop it first"
  | Some path ->
    s.s_durable <-
      Some (E.Durable.attach s.s_engine ~journal_path:path ~checkpoint_every:t.checkpoint_every)

let open_new t ~name ~durable ~now =
  if live_count t >= t.max_sessions then
    Protocol.reject Protocol.Session_limit "session table full (%d live sessions)"
      t.max_sessions;
  match journal_path t name with
  | Some path when Sys.file_exists path -> (
    (* a name with durable history always comes back durable *)
    match recover_one t name path now with
    | Ok _ -> (
      match Hashtbl.find_opt t.table name with
      | Some (Live s) -> s
      | _ -> Protocol.reject Protocol.Internal "recovery of %s lost the session" name)
    | Error msg -> Protocol.reject Protocol.Recovery_failed "session %s: %s" name msg)
  | _ ->
    let s =
      {
        s_name = name;
        s_engine = t.make_engine ();
        s_durable = None;
        s_last_used = now;
        s_requests = 0;
        s_hist = E.Telemetry.hist_create ();
      }
    in
    if durable then make_durable t s;
    Hashtbl.replace t.table name (Live s);
    E.Telemetry.bump c_opened 1;
    s

let lookup t ~name ~durable ~now =
  match Hashtbl.find_opt t.table name with
  | Some (Quarantined msg) ->
    Protocol.reject Protocol.Recovery_failed "session %s: %s" name msg
  | Some (Live s) ->
    if durable && s.s_durable = None then make_durable t s;
    s.s_last_used <- now;
    s
  | None -> open_new t ~name ~durable ~now

(* Closing tries to fold the journal tail into a checkpoint first — purely
   an optimization of the next recovery; the journal alone already holds
   the full committed history, so a failed checkpoint (e.g. inside an open
   push scope) downgrades to a plain close. *)
let close_session s =
  match s.s_durable with
  | None -> ()
  | Some d ->
    (try if E.Engine.scope_depth s.s_engine = 0 then E.Durable.checkpoint d
     with E.Journal.Journal_error _ -> ());
    E.Durable.close d;
    s.s_durable <- None

let close t ~name =
  match Hashtbl.find_opt t.table name with
  | Some (Live s) ->
    close_session s;
    Hashtbl.remove t.table name;
    true
  | Some (Quarantined _) | None -> false

let session_bytes (s : session) = E.Engine.modeled_bytes s.s_engine

let total_bytes t =
  Hashtbl.fold
    (fun _ e acc -> match e with Live s -> acc + session_bytes s | Quarantined _ -> acc)
    t.table 0

(* Shed the biggest holders first under global memory pressure. Deterministic
   victim order: modeled bytes descending, then name ascending — modeled
   bytes are a pure function of session contents, so the same state sheds the
   same sessions. The requester ([keep]) is never evicted out from under its
   own request; durable victims checkpoint first (close_session), so their
   state stays recoverable. *)
let evict_largest t ~keep ~target_bytes =
  let victims =
    Hashtbl.fold
      (fun name e acc ->
        match e with
        | Live s when name <> keep -> (name, s, session_bytes s) :: acc
        | Live _ | Quarantined _ -> acc)
      t.table []
    |> List.sort (fun (na, _, ba) (nb, _, bb) ->
           if ba <> bb then compare bb ba else String.compare na nb)
  in
  let evicted = ref [] in
  List.iter
    (fun (name, s, _) ->
      if total_bytes t > target_bytes then begin
        close_session s;
        Hashtbl.remove t.table name;
        note_eviction t name;
        evicted := name :: !evicted
      end)
    victims;
  List.rev !evicted

let evict_idle t ~now ~idle_timeout =
  let victims =
    Hashtbl.fold
      (fun name e acc ->
        match e with
        | Live s when now -. s.s_last_used > idle_timeout -> (name, s) :: acc
        | Live _ | Quarantined _ -> acc)
      t.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.map
    (fun (name, s) ->
      close_session s;
      Hashtbl.remove t.table name;
      note_eviction t name;
      name)
    victims

let drain t =
  List.iter (fun name -> ignore (close t ~name)) (live_names t)


(* ---- per-session attribution for the metrics reply ---- *)

type session_stat = {
  st_requests : int;
  st_bytes : int;
  st_durable : bool;
  st_evictions : int;
  st_latency : E.Telemetry.hist_snap;
}

let note_latency t ~name dt =
  match Hashtbl.find_opt t.table name with
  | Some (Live s) -> E.Telemetry.hist_record s.s_hist dt
  | Some (Quarantined _) | None -> ()

let per_session_stats t =
  Hashtbl.fold
    (fun name e acc ->
      match e with
      | Quarantined _ -> acc
      | Live s ->
        ( name,
          {
            st_requests = s.s_requests;
            st_bytes = session_bytes s;
            st_durable = s.s_durable <> None;
            st_evictions = evictions_of t name;
            st_latency = E.Telemetry.hist_snap_of s.s_hist;
          } )
        :: acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quarantined_names t =
  List.sort String.compare
    (Hashtbl.fold
       (fun name e acc -> match e with Quarantined _ -> name :: acc | Live _ -> acc)
       t.table [])

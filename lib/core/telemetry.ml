(* See telemetry.mli for the design constraints: global, off by default,
   one-branch no-ops while disabled, monotonic, injectable clock. *)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The shortest of %.15g/%.16g/%.17g that parses back to [x] (%.17g
   always does). Integral values print without a '.'; no form has a bare
   leading or trailing '.', so the result is also a valid JSON number. *)
let round_trip_decimal x =
  let at p = Printf.sprintf "%.*g" p x in
  let s = at 15 in
  if float_of_string s = x then s
  else
    let s = at 16 in
    if float_of_string s = x then s else at 17

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x ->
      Buffer.add_string buf (if Float.is_finite x then round_trip_decimal x else "null")
    | Str s -> escape_string buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 128 in
    write buf j;
    Buffer.contents buf

  (* ---- a small recursive-descent parser (for tests and validation) ---- *)

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some got when got = c -> advance ()
      | Some got -> fail "expected %c at offset %d, got %c" c !pos got
      | None -> fail "expected %c at offset %d, got end of input" c !pos
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        value
      end
      else fail "invalid literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad \\u escape %S" hex
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some code ->
                (* we only ever emit \u00xx for control chars; decode the
                   rest as UTF-8 for robustness *)
                if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end)
           | e -> fail "bad escape \\%c" e);
          go ()
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
      if is_float then
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail "bad number %S" text
      else begin
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with
          | Some x -> Float x
          | None -> fail "bad number %S" text)
      end
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          items_loop ();
          List (List.rev !items)
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at offset %d" !pos;
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let write_file path j =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_string j);
        Out_channel.output_char oc '\n')
end

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC via bechamel's tiny stub library: nanoseconds as int64,
   noalloc. Wall-clock (gettimeofday) is only ever a display concern. *)
let default_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let clock = ref default_clock
let now () = !clock ()
let set_clock f = clock := f
let use_default_clock () = clock := default_clock

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let enabled = ref false
let is_enabled () = !enabled

let sink : (string -> unit) option ref = ref None
let origin = ref 0.0
let depth = ref 0

type counter = int ref

(* The registry itself is cold (a handful of lookups per process, at
   module-init or report time). It is process-global and the daemon runs
   on its own domain, so a mutex keeps two domains' lookups from racing
   a table resize. *)
let registry_lock = Mutex.create ()

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl name v;
    v

let interned tbl name make = Mutex.protect registry_lock (fun () -> find_or_add tbl name make)

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name = interned counters name (fun () -> ref 0)
let bump c n = if !enabled then c := !c + n
let record_max c n = if !enabled then c := max !c n

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)
(* ------------------------------------------------------------------ *)

(* Power-of-two buckets: bucket [b] (1..127) holds values in
   (2^(b-65), 2^(b-64)]; bucket 0 holds everything <= 0. Bucket counts
   are integers and quantiles are pure functions of them: the same
   observations give byte-identical quantiles. *)
let n_buckets = 128
let bucket_origin = 64

let hist_bucket_of v =
  if v <= 0.0 then 0 (* includes -inf; NaN is dropped before we get here *)
  else if v = infinity then n_buckets - 1
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1); an exact power of two (m = 0.5)
       belongs to the bucket whose upper bound it is *)
    let b = if m = 0.5 then e + bucket_origin - 1 else e + bucket_origin in
    if b < 1 then 1 else if b > n_buckets - 1 then n_buckets - 1 else b
  end

let hist_bucket_le b = if b <= 0 then 0.0 else Float.ldexp 1.0 (b - bucket_origin)

type histogram = { h_buckets : int array; mutable h_sum : float (* of finite values *) }

let hist_create () = { h_buckets = Array.make n_buckets 0; h_sum = 0.0 }

let hists : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name = interned hists name hist_create

let hist_record h v =
  (* NaN observations are dropped at the recording boundary so no
     downstream aggregate or JSON field can ever go non-finite. *)
  if !enabled && not (Float.is_nan v) then begin
    let b = hist_bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    if Float.is_finite v then h.h_sum <- h.h_sum +. v
  end

type hist_snap = { hs_count : int; hs_sum : float; hs_buckets : (int * int) list }

(* Keep the non-empty buckets. *)
let hist_snap_of h =
  let count = ref 0 in
  let buckets = ref [] in
  for b = n_buckets - 1 downto 0 do
    let n = h.h_buckets.(b) in
    if n > 0 then begin
      count := !count + n;
      buckets := (b, n) :: !buckets
    end
  done;
  let sum = if Float.is_finite h.h_sum then h.h_sum else 0.0 in
  { hs_count = !count; hs_sum = sum; hs_buckets = !buckets }

let hist_snap_quantile hs p =
  if hs.hs_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int hs.hs_count)) in
      if r < 1 then 1 else if r > hs.hs_count then hs.hs_count else r
    in
    let rec go seen = function
      | [] -> hist_bucket_le (n_buckets - 1)
      | (b, n) :: rest -> if seen + n >= rank then hist_bucket_le b else go (seen + n) rest
    in
    go 0 hs.hs_buckets
  end

let hist_snap_fields hs =
  let quantile name p acc = (name, Json.Float (hist_snap_quantile hs p)) :: acc in
  ("count", Json.Int hs.hs_count)
  :: ("sum", Json.Float hs.hs_sum)
  ::
  (if hs.hs_count = 0 then []
   else
     quantile "p50" 0.5
       (quantile "p90" 0.9
          (quantile "p99" 0.99
             [
               ( "buckets",
                 Json.List
                   (List.map
                      (fun (b, n) -> Json.List [ Json.Float (hist_bucket_le b); Json.Int n ])
                      hs.hs_buckets) );
             ])))

let hist_snap_to_json hs = Json.Obj (hist_snap_fields hs)

(* A span named [X] records its duration into the registered histogram
   [X_s]. The handle is interned once per span name, keyed on the name
   itself so a span does not build the ["_s"] string on every call. *)
let span_hists : (string, histogram) Hashtbl.t = Hashtbl.create 32

let span_hist name =
  interned span_hists name (fun () -> find_or_add hists (name ^ "_s") hist_create)

let reset () =
  Hashtbl.iter (fun _ c -> c := 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 n_buckets 0;
      h.h_sum <- 0.0)
    hists;
  depth := 0

let enable ?sink:s () =
  enabled := true;
  (match s with Some f -> sink := Some f | None -> ());
  origin := now ()

let disable () =
  enabled := false;
  sink := None

(* ------------------------------------------------------------------ *)
(* Flight recorder and trace context                                   *)
(* ------------------------------------------------------------------ *)

(* Ring of the most recent rendered trace lines, captured whenever
   telemetry is enabled — with or without a sink — so a crash always has
   recent history to dump. The ring array is allocated once per capacity
   change and its slots are overwritten in place; pushes share
   [emit_lock] with the sink so dump ordering matches sink ordering. *)
let fr_default_capacity = 512
let fr_slots = ref (Array.make fr_default_capacity "")
let fr_pos = ref 0
let fr_len = ref 0

(* Ambient per-request trace id, set by the daemon around each request.
   A plain atomic is enough: the daemon executes one request at a time. *)
let trace_ctx : string option Atomic.t = Atomic.make None

let current_trace_id () = Atomic.get trace_ctx

let with_trace_id tid f =
  let prev = Atomic.get trace_ctx in
  Atomic.set trace_ctx (Some tid);
  Fun.protect ~finally:(fun () -> Atomic.set trace_ctx prev) f

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let emit_lock = Mutex.create ()

let fr_push_locked line =
  let cap = Array.length !fr_slots in
  if cap > 0 then begin
    !fr_slots.(!fr_pos) <- line;
    fr_pos := (!fr_pos + 1) mod cap;
    if !fr_len < cap then incr fr_len
  end

let flightrec_configure ~capacity =
  let capacity = max 0 capacity in
  Mutex.lock emit_lock;
  fr_slots := Array.make capacity "";
  fr_pos := 0;
  fr_len := 0;
  Mutex.unlock emit_lock

let flightrec_clear () =
  Mutex.lock emit_lock;
  Array.fill !fr_slots 0 (Array.length !fr_slots) "";
  fr_pos := 0;
  fr_len := 0;
  Mutex.unlock emit_lock

let flightrec_events () =
  Mutex.lock emit_lock;
  let cap = Array.length !fr_slots in
  let out = ref [] in
  (* oldest first: walk [fr_len] slots ending just before [fr_pos] *)
  for i = !fr_len - 1 downto 0 do
    out := !fr_slots.((!fr_pos - 1 - i + (2 * cap)) mod cap) :: !out
  done;
  Mutex.unlock emit_lock;
  List.rev !out

let flightrec_dump ~path =
  let events = flightrec_events () in
  let n = List.length events in
  if n > 0 then
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun line ->
            Out_channel.output_string oc line;
            Out_channel.output_char oc '\n')
          events);
  n

let rel t = t -. !origin

let emit_event t kind name fields =
  (* Render whenever anything will read the line: the sink, or the
     always-on flight recorder (capacity 0 turns the recorder off). When
     telemetry is disabled we never get here at all, so the fully
     disabled path stays one branch at each span/instant call site. *)
  let want_sink = !sink <> None in
  if want_sink || Array.length !fr_slots > 0 then begin
    (* The ambient trace id, when set, tags every event for its request. *)
    let fields =
      match current_trace_id () with
      | None -> fields
      | Some tid -> fields @ [ ("tid", Json.Str tid) ]
    in
    let line =
      Json.to_string
        (Json.Obj
           (("t", Json.Float (rel t)) :: ("ev", Json.Str kind) :: ("name", Json.Str name)
           :: fields))
    in
    Mutex.lock emit_lock;
    fr_push_locked line;
    (match !sink with
    | Some f -> ( try f line with e -> Mutex.unlock emit_lock; raise e)
    | None -> ());
    Mutex.unlock emit_lock
  end

(* The enabled path of [span] and [timed_span]: begin and end events,
   balanced even on exceptions, and one observation of the duration. *)
let traced name f =
  let h = span_hist name in
  let t0 = now () in
  emit_event t0 "b" name [ ("depth", Json.Int !depth) ];
  incr depth;
  let finish () =
    decr depth;
    let t1 = now () in
    let dt = t1 -. t0 in
    hist_record h dt;
    emit_event t1 "e" name [ ("dur", Json.Float dt); ("depth", Json.Int !depth) ];
    dt
  in
  match f () with
  | v -> (finish (), v)
  | exception e ->
    ignore (finish ());
    raise e

let span name f = if not !enabled then f () else snd (traced name f)

let timed_span name f =
  if !enabled then traced name f
  else begin
    let t0 = now () in
    let v = f () in
    (now () -. t0, v)
  end

let instant name fields = if !enabled then emit_event (now ()) "i" name fields

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type snapshot = { sn_counters : (string * int) list; sn_hists : (string * hist_snap) list }

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let snapshot () =
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        let v = !c in
        if v = 0 then acc else (name, v) :: acc)
      counters []
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let s = hist_snap_of h in
        if s.hs_count = 0 then acc else (name, s) :: acc)
      hists []
  in
  { sn_counters = sorted_by_name cs; sn_hists = sorted_by_name hs }

let flush_counters () =
  if !sink <> None then begin
    let t = now () in
    let snap = snapshot () in
    List.iter (fun (name, v) -> emit_event t "c" name [ ("value", Json.Int v) ]) snap.sn_counters;
    List.iter (fun (name, hs) -> emit_event t "h" name (hist_snap_fields hs)) snap.sn_hists
  end

let snapshot_to_json snap =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) snap.sn_counters));
      ("hists", Json.Obj (List.map (fun (name, h) -> (name, hist_snap_to_json h)) snap.sn_hists));
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "egglog_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else round_trip_decimal x

let prometheus_of_snapshot snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, v) ->
      let m = prom_name name in
      line "# TYPE %s_total counter" m;
      line "%s_total %d" m v)
    snap.sn_counters;
  List.iter
    (fun (name, h) ->
      let m = prom_name name in
      line "# TYPE %s histogram" m;
      let cum = ref 0 in
      List.iter
        (fun (b, n) ->
          cum := !cum + n;
          line "%s_bucket{le=\"%s\"} %d" m (prom_float (hist_bucket_le b)) !cum)
        h.hs_buckets;
      line "%s_bucket{le=\"+Inf\"} %d" m h.hs_count;
      line "%s_sum %s" m (prom_float h.hs_sum);
      line "%s_count %d" m h.hs_count)
    snap.sn_hists;
  Buffer.contents buf

let pp_table fmt snap =
  let w = List.fold_left (fun w (name, _) -> max w (String.length name)) 24 snap.sn_hists in
  let w = List.fold_left (fun w (name, _) -> max w (String.length name)) w snap.sn_counters in
  if snap.sn_hists <> [] then begin
    Format.fprintf fmt "%-*s %10s %12s %12s %12s@\n" w "histogram" "count" "total" "p50" "p99";
    List.iter
      (fun (name, hs) ->
        Format.fprintf fmt "%-*s %10d %12.6g %12.6g %12.6g@\n" w name hs.hs_count hs.hs_sum
          (hist_snap_quantile hs 0.5) (hist_snap_quantile hs 0.99))
      snap.sn_hists
  end;
  if snap.sn_counters <> [] then begin
    if snap.sn_hists <> [] then Format.fprintf fmt "@\n";
    Format.fprintf fmt "%-*s %12s@\n" w "counter" "value";
    List.iter (fun (name, v) -> Format.fprintf fmt "%-*s %12d@\n" w name v) snap.sn_counters
  end

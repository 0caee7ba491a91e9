exception Journal_error of string

let error fmt = Format.kasprintf (fun s -> raise (Journal_error s)) fmt

let magic = "egglog-journal"
let format_version = 2
let header_line = Printf.sprintf "%s %d\n" magic format_version

(* ---- low-level file plumbing ---- *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let fsync_dir path =
  (* make renames durable; directory fsync is not supported everywhere, and
     failing only weakens durability, never corrupts, so errors are ignored *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let atomic_write ?kind path pieces =
  let hit moment = Option.iter (fun k -> Fault.hit (k ^ "." ^ moment)) kind in
  hit "before";
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter (write_all fd) pieces;
      Unix.fsync fd);
  hit "unrenamed";
  Sys.rename tmp path;
  fsync_dir path;
  hit "renamed"

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> contents
  | exception Sys_error msg -> error "%s" msg

(* ---- scanning ----

   A journal is a header line [egglog-journal 2], one checkpoint record,
   then the request records:

   {v
   c <payload-length> <crc32-hex>\n
   <checkpoint payload bytes>\n
   r <payload-length> <crc32-hex>\n
   <request payload bytes>\n
   ...
   v}

   Records are length-framed (payloads may contain newlines) and
   checksummed. The header and the checkpoint record are written together
   by one atomic rename, so they are never torn: a bad checkpoint record
   is an error. A crash during {!append} can leave at most one partial
   record, at the end of the file; the scanner reports it as a torn tail.
   A bad request record with a valid one after it is not a crash artifact
   but corruption, and an error too. *)

type contents = { checkpoint : string; entries : string list; torn : bool }

let frame tag payload =
  Printf.sprintf "%s %d %s\n" tag (String.length payload)
    (Checksum.to_hex (Checksum.crc32 payload))

(* The record framed at [pos]: its payload and the offset after it, if the
   frame is complete and the checksum holds. *)
let record_at data tag pos =
  match String.index_from_opt data pos '\n' with
  | None -> None
  | Some nl -> (
    match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
    | [ t; len_s; crc_s ] when String.equal t tag -> (
      match (int_of_string_opt len_s, Checksum.of_hex crc_s) with
      | Some len, Some crc when len >= 0 && len <= String.length data - nl - 2 ->
        let payload = String.sub data (nl + 1) len in
        if data.[nl + 1 + len] = '\n' && Checksum.crc32 payload = crc then
          Some (payload, nl + len + 2)
        else None
      | _ -> None)
    | _ -> None)

(* Does a valid request record start at any line after [pos]? *)
let rec record_follows data pos =
  match String.index_from_opt data pos '\n' with
  | None -> false
  | Some nl -> Option.is_some (record_at data "r" (nl + 1)) || record_follows data (nl + 1)

(* The contents and the length of the valid prefix. *)
let scan path =
  let data = read_file path in
  let body =
    match String.index_opt data '\n' with
    | None -> error "%s: missing or torn journal header" path
    | Some nl -> (
      let line = String.sub data 0 nl in
      match String.split_on_char ' ' line with
      | m :: version :: rest when String.equal m magic -> (
        match int_of_string_opt version with
        | Some v when v = format_version && rest = [] -> nl + 1
        | Some v when v <> format_version ->
          error "%s: unsupported journal format version %d (this build reads version %d)" path v
            format_version
        | _ -> error "%s: malformed journal header %S" path line)
      | _ -> error "%s: not an egglog journal (bad magic in %S)" path line)
  in
  let checkpoint, first =
    match record_at data "c" body with
    | Some r -> r
    | None -> error "%s: missing or corrupt checkpoint record at byte %d" path body
  in
  let rec records acc pos =
    if pos >= String.length data then (acc, pos, false)
    else
      match record_at data "r" pos with
      | Some (payload, next) -> records (payload :: acc) next
      | None when record_follows data pos ->
        error "%s: corrupt journal record at byte %d (valid records follow it)" path pos
      | None -> (acc, pos, true)
  in
  let entries, valid_len, torn = records [] first in
  ({ checkpoint; entries = List.rev entries; torn }, valid_len)

let read path = fst (scan path)

(* ---- the append handle ---- *)

type t = { path : string; mutable fd : Unix.file_descr; mutable closed : bool }

let open_at_end path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  fd

(* Header, frame line and payload go out as separate writes: joining them
   would copy a database-sized string. *)
let write_fresh ?kind path ~checkpoint =
  atomic_write ?kind path [ header_line; frame "c" checkpoint; checkpoint; "\n" ]

let create path ~checkpoint =
  write_fresh path ~checkpoint;
  { path; fd = open_at_end path; closed = false }

let open_append path =
  let contents, valid_len = scan path in
  if contents.torn then begin
    (* drop the torn tail for good, so later scans see a clean journal *)
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd valid_len;
        Unix.fsync fd)
  end;
  ({ path; fd = open_at_end path; closed = false }, contents)

let check_open t = if t.closed then error "%s: journal handle is closed" t.path

let c_appends = Telemetry.counter "journal.appends"
let c_append_bytes = Telemetry.counter "journal.append_bytes"

let append t payload =
  check_open t;
  Telemetry.bump c_appends 1;
  Telemetry.bump c_append_bytes (String.length payload);
  Telemetry.span "journal.append" @@ fun () ->
  Fault.hit "journal.append.before";
  let hdr = frame "r" payload in
  (* the whole record in one string: a healthy append is one write *)
  let record = String.concat "" [ hdr; payload; "\n" ] in
  if Fault.would_crash "journal.append.torn" then begin
    (* simulate a torn write: part of the record reaches the disk, then the
       process dies mid-append *)
    write_all t.fd (String.sub record 0 (String.length hdr + (String.length payload / 2)));
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Fault.crash "journal.append.torn"
  end;
  write_all t.fd record;
  Unix.fsync t.fd;
  Fault.hit "journal.append.synced"

let rewrite t ~checkpoint =
  check_open t;
  (* keep the journal being replaced as a backup for manual recovery; like
     [fsync_dir], failing here only loses the backup *)
  let prev = t.path ^ ".prev" in
  (try Sys.remove prev with Sys_error _ -> ());
  (try Unix.link t.path prev with Unix.Unix_error _ -> ());
  write_fresh ~kind:"checkpoint" t.path ~checkpoint;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_at_end t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

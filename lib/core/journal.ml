exception Journal_error of string

let error fmt = Format.kasprintf (fun s -> raise (Journal_error s)) fmt

let magic = "egglog-journal"
let format_version = 1
let header_line seq = Printf.sprintf "%s %d %d\n" magic format_version seq

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

let atomic_write path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir path

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> contents
  | exception Sys_error msg -> error "%s" msg

(* ---- scanning ----

   A journal is a header line [egglog-journal 1 <seq>] followed by records

   {v
   r <payload-length> <crc32-hex>\n
   <payload bytes>\n
   v}

   Records are length-framed (payloads may contain newlines) and
   checksummed. A crash during {!append} can leave at most one partial
   record at the end of the file; the scanner stops at the first record that
   is incomplete or fails its checksum and reports everything before it as
   the valid prefix. The header itself is always intact because journal
   creation and {!reset} go through an atomic temp-file + rename. *)

type contents = { seq : int; entries : string list; torn : bool }

type scan = { sc_contents : contents; sc_valid_len : int }

let scan path : scan =
  let data = read_file path in
  let total = String.length data in
  match String.index_opt data '\n' with
  | None -> error "%s: missing or torn journal header" path
  | Some nl -> (
    let line = String.sub data 0 nl in
    match String.split_on_char ' ' line with
    | [ m; version_s; seq_s ] when String.equal m magic -> (
      match (int_of_string_opt version_s, int_of_string_opt seq_s) with
      | Some v, Some seq when v = format_version ->
        let entries = ref [] in
        let pos = ref (nl + 1) in
        let valid = ref (nl + 1) in
        let torn = ref false in
        (try
           while !pos < total do
             match String.index_from_opt data !pos '\n' with
             | None ->
               torn := true;
               raise Exit
             | Some rnl -> (
               let rline = String.sub data !pos (rnl - !pos) in
               match String.split_on_char ' ' rline with
               | [ "r"; len_s; crc_s ] -> (
                 match (int_of_string_opt len_s, Checksum.of_hex crc_s) with
                 | Some len, Some crc when len >= 0 ->
                   let pstart = rnl + 1 in
                   if pstart + len + 1 > total then begin
                     torn := true;
                     raise Exit
                   end;
                   let payload = String.sub data pstart len in
                   if data.[pstart + len] <> '\n' || Checksum.crc32 payload <> crc
                   then begin
                     torn := true;
                     raise Exit
                   end;
                   entries := payload :: !entries;
                   pos := pstart + len + 1;
                   valid := !pos
                 | _ ->
                   torn := true;
                   raise Exit)
               | _ ->
                 torn := true;
                 raise Exit)
           done
         with Exit -> ());
        {
          sc_contents = { seq; entries = List.rev !entries; torn = !torn };
          sc_valid_len = !valid;
        }
      | Some v, Some _ ->
        error "%s: unsupported journal format version %d (this build reads version %d)" path v
          format_version
      | _ -> error "%s: malformed journal header %S" path line)
    | _ -> error "%s: not an egglog journal (bad magic in %S)" path line)

let read path = (scan path).sc_contents

(* ---- the append handle ---- *)

type t = { path : string; mutable fd : Unix.file_descr; mutable closed : bool }

let path t = t.path

let open_at_end path pos =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  fd

let create path ~ckpt_seq =
  atomic_write path (header_line ckpt_seq);
  let len = String.length (header_line ckpt_seq) in
  { path; fd = open_at_end path len; closed = false }

let open_append path =
  let { sc_contents; sc_valid_len } = scan path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  if sc_contents.torn then begin
    (* drop the torn tail for good, so later scans see a clean journal *)
    Unix.ftruncate fd sc_valid_len;
    Unix.fsync fd
  end;
  ignore (Unix.lseek fd sc_valid_len Unix.SEEK_SET);
  ({ path; fd; closed = false }, sc_contents)

let check_open t = if t.closed then error "%s: journal handle is closed" t.path

let c_appends = Telemetry.counter "journal.appends"
let c_append_bytes = Telemetry.counter "journal.append_bytes"
let c_resets = Telemetry.counter "journal.resets"

let append t payload =
  check_open t;
  Telemetry.bump c_appends 1;
  Telemetry.bump c_append_bytes (String.length payload);
  Telemetry.span "journal.append" @@ fun () ->
  Fault.hit "journal.append.before";
  let hdr =
    Printf.sprintf "r %d %s\n" (String.length payload)
      (Checksum.to_hex (Checksum.crc32 payload))
  in
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

let reset t ~ckpt_seq =
  check_open t;
  Telemetry.bump c_resets 1;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  atomic_write t.path (header_line ckpt_seq);
  t.fd <- open_at_end t.path (String.length (header_line ckpt_seq))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

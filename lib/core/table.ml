type row = {
  mutable value : Value.t;
  mutable stamp : int;
  mutable born : int;
}

type mark = { m_log : int; m_ret : int; m_seq : int }

type change = { key : Value.t array; retracted : Value.t option; current : row option }

(* The newest feed answer: the changes from [f_from] to version [f_to]. *)
type feed = { f_from : mark; f_to : int; f_changes : change array }

type t = {
  func : Schema.func;
  uid : int;  (* identity of this table, fresh on create *)
  data : row Value.Key_tbl.t;
  (* Append-only log of (key, stamp-at-append), nondecreasing in stamp.
     A log entry is current iff the row still exists and its stamp equals
     the entry's: rows re-stamped later appear again further down the log,
     so each surviving row is visited exactly once per range. *)
  mutable log_keys : Value.t array array;
  mutable log_stamps : int array;
  (* The row each entry logged. Removal tombstones the record (stamp goes
     to min_int) and a re-insert makes a fresh one, so a log walk can test
     currency with two loads and no hashing: entry [i] is current iff
     [log_rows.(i).stamp = log_stamps.(i)]. *)
  mutable log_rows : row array;
  mutable log_len : int;
  (* The retraction log: every version a write took away — a removed row,
     or the old output of an overwritten one — with its row's [born].
     Together with the stamp log it is the table's change feed (see
     [changes_since]). Positions are absolute: entry [i] sits at index
     [i - ret_base], the older ones having been dropped. *)
  mutable ret_keys : Value.t array array;
  mutable ret_values : Value.t array;
  mutable ret_born : int array;
  mutable ret_base : int;
  mutable ret_len : int;
  mutable version : int;  (* bumped on any write and inverse: the write sequence *)
  mutable undone_at : int;  (* version right after the newest inverse *)
  mutable last_feed : feed option;  (* shared by consumers holding one mark *)
  mutable bytes : int;  (* modeled footprint, maintained incrementally *)
  trail : Trail.t;  (* inverses of writes, while a transaction is open *)
  id_columns : int array;  (* columns whose type can hold an id *)
}

(* Shared sentinel for log slots whose entry can never be current again.
   Never mutated: [remove] tombstones only records that were in [data]. *)
let dead_row = { value = Value.VUnit; stamp = min_int; born = 0 }

(* Modeled byte accounting. Each row costs a fixed overhead (hashtable
   bucket, record, key array header) plus the modeled size of its key
   elements and output; each timestamp-log entry costs a fixed slot. The
   constants echo the runtime representation but what matters is that the
   count is a deterministic function of the table contents. *)
let row_overhead = 48
let log_entry_cost = 16

let key_bytes key = Array.fold_left (fun acc v -> acc + Value.modeled_bytes v) 16 key
let row_bytes key value = row_overhead + key_bytes key + Value.modeled_bytes value

let next_uid =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let column_ty (f : Schema.func) i : Ty.t =
  if i < Schema.arity f then f.Schema.arg_tys.(i) else f.Schema.ret_ty

let rec holds_id : Ty.t -> bool = function
  | Ty.Sort _ -> true
  | Ty.Set t | Ty.Vec t -> holds_id t
  | Ty.Unit | Ty.Bool | Ty.Int | Ty.Rational | Ty.String -> false

let id_columns_of f =
  List.init (Schema.arity f + 1) Fun.id
  |> List.filter (fun i -> holds_id (column_ty f i))
  |> Array.of_list

let create ?(trail = Trail.create ()) func =
  {
    func;
    uid = next_uid ();
    data = Value.Key_tbl.create 64;
    log_keys = Array.make 16 [||];
    log_stamps = Array.make 16 0;
    log_rows = Array.make 16 dead_row;
    log_len = 0;
    ret_keys = [||];
    ret_values = [||];
    ret_born = [||];
    ret_base = 0;
    ret_len = 0;
    version = 0;
    undone_at = 0;
    last_feed = None;
    bytes = 0;
    trail;
    id_columns = id_columns_of func;
  }

let func t = t.func
let length t = Value.Key_tbl.length t.data
let version t = t.version
let uid t = t.uid
let id_columns t = t.id_columns

(* Entries ever appended to the timestamp log (inserts + re-stamps). The
   growth of this number over an iteration is exactly the frontier the next
   semi-naïve round will scan, which makes it the right "delta size" to
   report in telemetry. *)
let log_length t = t.log_len
let modeled_bytes t = t.bytes
let get t key = Value.Key_tbl.find_opt t.data key

let log_append t key row stamp =
  if t.log_len >= Array.length t.log_keys then begin
    let cap = 2 * Array.length t.log_keys in
    let keys = Array.make cap [||] and stamps = Array.make cap 0 in
    let rows = Array.make cap dead_row in
    Array.blit t.log_keys 0 keys 0 t.log_len;
    Array.blit t.log_stamps 0 stamps 0 t.log_len;
    Array.blit t.log_rows 0 rows 0 t.log_len;
    t.log_keys <- keys;
    t.log_stamps <- stamps;
    t.log_rows <- rows
  end;
  t.log_keys.(t.log_len) <- key;
  t.log_stamps.(t.log_len) <- stamp;
  t.log_rows.(t.log_len) <- row;
  t.log_len <- t.log_len + 1;
  t.bytes <- t.bytes + log_entry_cost

(* Record that the version [key -> row.value] is being taken away. Called
   before the write that retracts it. Not part of [bytes]: the feed is
   bookkeeping for derived structures, not table content. When the arrays
   are full and hold more than [max 16 rows] entries, only the newest
   [max 16 rows] are kept: a consumer further behind would read at least
   as many feed entries as the table has rows, which costs as much as the
   rebuild it is sent to instead ([changes_since] answers [None]). *)
let log_retraction t key (row : row) =
  let n = t.ret_len - t.ret_base in
  if n >= Array.length t.ret_keys then begin
    let keep = min n (max 16 (length t)) in
    let cap = 2 * max keep 8 in
    let keys = Array.make cap [||] and values = Array.make cap Value.VUnit in
    let born = Array.make cap 0 in
    Array.blit t.ret_keys (n - keep) keys 0 keep;
    Array.blit t.ret_values (n - keep) values 0 keep;
    Array.blit t.ret_born (n - keep) born 0 keep;
    t.ret_keys <- keys;
    t.ret_values <- values;
    t.ret_born <- born;
    t.ret_base <- t.ret_len - keep
  end;
  let i = t.ret_len - t.ret_base in
  t.ret_keys.(i) <- key;
  t.ret_values.(i) <- row.value;
  t.ret_born.(i) <- row.born;
  t.ret_len <- t.ret_len + 1

(* Undo support. An inverse restores the fields its write touched and
   truncates the stamp log back to where it was; entries past [log_len]
   are dead (the walks never read them) and are dropped for the
   collector. [version] is bumped, never restored, so it stays monotone
   across rollbacks, and [undone_at] makes every older mark read a cut
   feed — so the retraction log, which only such marks could read, is
   dropped whole. An inverse's reverse puts back what the inverse read
   before restoring, and re-appends the one log entry the write appended,
   if any. *)
let truncate_log t len =
  for i = len to t.log_len - 1 do
    t.log_keys.(i) <- [||];
    t.log_rows.(i) <- dead_row
  done;
  t.log_len <- len

let undone t =
  t.version <- t.version + 1;
  t.undone_at <- t.version;
  t.ret_keys <- [||];
  t.ret_values <- [||];
  t.ret_born <- [||];
  t.ret_base <- t.ret_len;
  t.last_feed <- None

let record_insert t key =
  let log_len = t.log_len and bytes = t.bytes in
  let rec undo () =
    let row = Value.Key_tbl.find t.data key and bytes' = t.bytes in
    Value.Key_tbl.remove t.data key;
    truncate_log t log_len;
    t.bytes <- bytes;
    undone t;
    Trail.Entry
      (fun () ->
        Value.Key_tbl.replace t.data key row;
        log_append t key row row.stamp;
        t.bytes <- bytes';
        undone t;
        Trail.Entry undo)
  in
  Trail.push t.trail undo

let record_update t row =
  let value = row.value and stamp = row.stamp in
  let log_len = t.log_len and bytes = t.bytes in
  let rec undo () =
    let value' = row.value and stamp' = row.stamp in
    let bytes' = t.bytes and key = if t.log_len > log_len then Some t.log_keys.(log_len) else None in
    row.value <- value;
    row.stamp <- stamp;
    truncate_log t log_len;
    t.bytes <- bytes;
    undone t;
    Trail.Entry
      (fun () ->
        row.value <- value';
        row.stamp <- stamp';
        Option.iter (fun key -> log_append t key row stamp') key;
        t.bytes <- bytes';
        undone t;
        Trail.Entry undo)
  in
  Trail.push t.trail undo

let record_remove t key row =
  let stamp = row.stamp and bytes = t.bytes in
  let rec undo () =
    let bytes' = t.bytes in
    row.stamp <- stamp;
    Value.Key_tbl.replace t.data key row;
    t.bytes <- bytes;
    undone t;
    Trail.Entry
      (fun () ->
        Value.Key_tbl.remove t.data key;
        row.stamp <- min_int;
        t.bytes <- bytes';
        undone t;
        Trail.Entry undo)
  in
  Trail.push t.trail undo

let set_raw t key value ~stamp =
  match Value.Key_tbl.find_opt t.data key with
  | None ->
    t.version <- t.version + 1;
    let row = { value; stamp; born = t.version } in
    if Trail.recording t.trail then record_insert t key;
    Value.Key_tbl.replace t.data key row;
    t.bytes <- t.bytes + row_bytes key value;
    log_append t key row stamp;
    `Inserted
  | Some row ->
    if Value.equal row.value value then `Unchanged
    else begin
      if Trail.recording t.trail then record_update t row;
      log_retraction t key row;
      let restamped = row.stamp <> stamp in
      t.bytes <- t.bytes + Value.modeled_bytes value - Value.modeled_bytes row.value;
      t.version <- t.version + 1;
      row.value <- value;
      row.stamp <- stamp;
      if restamped then log_append t key row stamp;
      `Updated
    end

let remove t key =
  match Value.Key_tbl.find_opt t.data key with
  | Some row ->
    if Trail.recording t.trail then record_remove t key row;
    log_retraction t key row;
    Value.Key_tbl.remove t.data key;
    row.stamp <- min_int;  (* tombstone: the row's log entries go dead *)
    (* The log entries the row left behind stay allocated, so only the row
       itself is subtracted; log cost is reclaimed never, like the arrays. *)
    t.bytes <- t.bytes - row_bytes key row.value;
    t.version <- t.version + 1
  | None -> ()
let iter f t = Value.Key_tbl.iter f t.data
let fold f t init = Value.Key_tbl.fold f t.data init

(* First log index with stamp >= lo (stamps are nondecreasing). *)
let log_lower_bound t lo =
  let left = ref 0 and right = ref t.log_len in
  while !left < !right do
    let mid = (!left + !right) / 2 in
    if t.log_stamps.(mid) < lo then left := mid + 1 else right := mid
  done;
  !left

let entries_since t lo = t.log_len - log_lower_bound t lo

(* A full window scans [data]; a delta window walks the log tail and
   tests each entry's currency through the logged row pointer, with no
   hashing. A key removed and re-inserted within one timestamp (rebuild
   rounds) appears twice in the log with the same stamp, but only the
   newer entry points at a live record, so every surviving row is visited
   exactly once. *)
let iter_delta t ~lo ~hi f =
  if lo <= 0 then
    Value.Key_tbl.iter (fun key row -> if row.stamp < hi then f key row) t.data
  else begin
    let start = log_lower_bound t lo in
    for i = start to t.log_len - 1 do
      let s = t.log_stamps.(i) in
      if s < hi then begin
        let row = t.log_rows.(i) in
        if row.stamp = s then f t.log_keys.(i) row
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* The change feed                                                     *)
(* ------------------------------------------------------------------ *)

let mark t = { m_log = t.log_len; m_ret = t.ret_len; m_seq = t.version }
let unchanged_since t m = t.version = m.m_seq

(* Every write reaches one of the two logs: an insert appends a stamp-log
   entry, a remove or an output overwrite a retraction (a re-stamped
   overwrite both). So the keys a write touched since [m] are exactly the
   keys of the two log suffixes, and the version a key had at the mark is
   the one its first retraction after the mark took away — if the key was
   present at the mark, i.e. if the retracted row was inserted no later
   than the mark ([born]; an overwrite after the mark is preceded by its
   own retraction, so only insertion matters). Log positions cannot tell
   this: a same-stamp overwrite appends no stamp-log entry. *)
let compute_changes t m =
  let n_ret = t.ret_len - m.m_ret in
  let changes =
    Array.make (n_ret + t.log_len - m.m_log) { key = [||]; retracted = None; current = None }
  in
  let n = ref 0 in
  let push change =
    changes.(!n) <- change;
    incr n
  in
  let retracted = Value.Key_tbl.create (max 16 n_ret) in
  for j = m.m_ret - t.ret_base to t.ret_len - t.ret_base - 1 do
    let key = t.ret_keys.(j) in
    if not (Value.Key_tbl.mem retracted key) then begin
      Value.Key_tbl.add retracted key ();
      push
        {
          key;
          retracted = (if t.ret_born.(j) <= m.m_seq then Some t.ret_values.(j) else None);
          current = Value.Key_tbl.find_opt t.data key;
        }
    end
  done;
  (* A key with no retraction since the mark was absent at the mark and
     was inserted once: a second stamp-log entry would have needed a
     removal or an overwrite first. So its entry is unique, and its logged
     record is the current one. *)
  for i = m.m_log to t.log_len - 1 do
    let key = t.log_keys.(i) in
    if n_ret = 0 || not (Value.Key_tbl.mem retracted key) then
      push { key; retracted = None; current = Some t.log_rows.(i) }
  done;
  Array.sub changes 0 !n

(* Consumers that marked the table at the same moment (the join cache's
   structures over one table, patched in one search phase) share one
   answer. *)
let changes_since t m =
  if t.undone_at > m.m_seq || m.m_ret < t.ret_base then None
  else
    match t.last_feed with
    | Some f when f.f_from = m && f.f_to = t.version -> Some f.f_changes
    | Some _ | None ->
      let changes = compute_changes t m in
      t.last_feed <- Some { f_from = m; f_to = t.version; f_changes = changes };
      Some changes

(* ------------------------------------------------------------------ *)
(* Typed column readers (compiled join plans)                          *)
(* ------------------------------------------------------------------ *)

(* Column [i] of a row is key position [i] when i < arity and the output
   cell otherwise. The position test is resolved here, once per compiled
   closure, so the per-row reader is a direct load. *)
let reader (f : Schema.func) i : Value.t array -> row -> Value.t =
  if i < Schema.arity f then fun key _ -> key.(i) else fun _ row -> row.value

(* Integer payload of a cell in an i64/bool/sort-typed column. The type
   checker guarantees the constructor, so anything else is data corruption,
   not a user error. *)
let int_payload = function
  | Value.VInt n -> n
  | Value.VId n -> n
  | Value.VBool b -> Bool.to_int b
  | Value.VUnit | Value.VRat _ | Value.VStr _ | Value.VSet _ | Value.VVec _ ->
    invalid_arg "Table.int_reader: non-integer payload in typed column"

let has_int_payload : Ty.t -> bool = function
  | Ty.Int | Ty.Bool | Ty.Sort _ -> true
  | Ty.Unit | Ty.Rational | Ty.String | Ty.Set _ | Ty.Vec _ -> false

let int_reader (f : Schema.func) i : (Value.t array -> row -> int) option =
  if not (has_int_payload (column_ty f i)) then None
  else
    Some
      (if i < Schema.arity f then fun key _ -> int_payload key.(i)
       else fun _ row -> int_payload row.value)

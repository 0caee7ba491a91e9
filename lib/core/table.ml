type row = { mutable value : Value.t; mutable stamp : int; mutable first_log : int }

type t = {
  func : Schema.func;
  uid : int;  (* identity of this incarnation; fresh on create and copy *)
  data : row Value.Key_tbl.t;
  (* Append-only log of (key, stamp-at-append), nondecreasing in stamp.
     A log entry is current iff the row still exists and its stamp equals
     the entry's: rows re-stamped later appear again further down the log,
     so each surviving row is visited exactly once per range. *)
  mutable log_keys : Value.t array array;
  mutable log_stamps : int array;
  (* The row each entry logged. Removal tombstones the record (stamp goes
     to min_int), so a log walk can test currency with two loads and no
     hashing: entry [i] is current iff [log_rows.(i).stamp = log_stamps.(i)]
     and [log_rows.(i).first_log = i] (the latter collapses the entries a
     same-stamp remove/re-insert leaves behind to the first one — the one
     the hashing walk of [iter_range] fires). *)
  mutable log_rows : row array;
  mutable log_len : int;
  mutable version : int;  (* bumped on any mutation; index-cache validity *)
  mutable removals : int;  (* rows ever removed; nonzero delta = not append-only *)
  mutable value_updates : int;  (* in-place output overwrites of existing rows *)
  mutable distinct_cache : (int * int array) option;  (* version, per-column distincts *)
  mutable bytes : int;  (* modeled footprint, maintained incrementally *)
  (* Keys removed while the log's newest stamp still equals their row's: a
     re-insert at that same stamp must inherit the removed row's [first_log]
     (and its log slot) to keep delta-walk emission positions identical to
     [iter_range]'s first-occurrence rule. Entries are valid only for
     [revivals_stamp]; a removal at a newer stamp starts a fresh hazard
     window with a fresh table. *)
  mutable revivals : int Value.Key_tbl.t;
  mutable revivals_stamp : int;
  trail : Trail.t;  (* inverses of writes, while a transaction is open *)
}

(* Shared sentinel for log slots whose entry can never be current again.
   Never mutated: [remove] tombstones only records that were in [data]. *)
let dead_row = { value = Value.VUnit; stamp = min_int; first_log = -1 }

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

let create ?(trail = Trail.create ()) func =
  {
    func;
    uid = next_uid ();
    data = Value.Key_tbl.create 64;
    log_keys = Array.make 16 [||];
    log_stamps = Array.make 16 0;
    log_rows = Array.make 16 dead_row;
    log_len = 0;
    version = 0;
    removals = 0;
    value_updates = 0;
    distinct_cache = None;
    bytes = 0;
    revivals = Value.Key_tbl.create 8;
    revivals_stamp = min_int;
    trail;
  }

let func t = t.func
let length t = Value.Key_tbl.length t.data
let version t = t.version
let uid t = t.uid
let removals t = t.removals
let value_updates t = t.value_updates

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

(* Undo support. An inverse restores the fields its write touched and
   truncates the log back to where it was; entries past [log_len] are dead
   (the walks never read them) and are dropped for the collector. [version]
   is bumped, never restored, so it stays monotone across rollbacks. *)
let truncate_log t len =
  for i = len to t.log_len - 1 do
    t.log_keys.(i) <- [||];
    t.log_rows.(i) <- dead_row
  done;
  t.log_len <- len

let record_insert t key ~revived =
  let log_len = t.log_len and bytes = t.bytes in
  Trail.push t.trail (fun () ->
      Value.Key_tbl.remove t.data key;
      (match revived with
       | Some (fl, tombstone) ->
         t.log_rows.(fl) <- tombstone;
         Value.Key_tbl.replace t.revivals key fl
       | None -> ());
      truncate_log t log_len;
      t.bytes <- bytes;
      t.version <- t.version + 1)

let record_update t row =
  let value = row.value and stamp = row.stamp and first_log = row.first_log in
  let log_len = t.log_len and bytes = t.bytes in
  Trail.push t.trail (fun () ->
      row.value <- value;
      row.stamp <- stamp;
      row.first_log <- first_log;
      truncate_log t log_len;
      t.bytes <- bytes;
      t.value_updates <- t.value_updates - 1;
      t.version <- t.version + 1)

(* When [remove] binds the key in the revival table of the row's own
   window, the key was unbound there before (a same-stamp re-insert
   consumes the binding), so unbinding it restores the table; a fresh
   table for a new window is dropped whole. *)
let record_remove t key row =
  let stamp = row.stamp and bytes = t.bytes in
  let revivals = t.revivals and revivals_stamp = t.revivals_stamp in
  let bound_in_window =
    revivals_stamp = stamp && t.log_len > 0 && t.log_stamps.(t.log_len - 1) = stamp
  in
  Trail.push t.trail (fun () ->
      if bound_in_window then Value.Key_tbl.remove revivals key;
      t.revivals <- revivals;
      t.revivals_stamp <- revivals_stamp;
      row.stamp <- stamp;
      Value.Key_tbl.replace t.data key row;
      t.bytes <- bytes;
      t.removals <- t.removals - 1;
      t.version <- t.version + 1)

let set_raw t key value ~stamp =
  match Value.Key_tbl.find_opt t.data key with
  | None ->
    let row = { value; stamp; first_log = t.log_len } in
    (* Same-stamp revival: the key was removed at this stamp after being
       logged; re-attach the fresh record to the original entry so delta
       walks fire it there (where [iter_range]'s dedupe rule fires it). *)
    let revived =
      if t.revivals_stamp = stamp && Value.Key_tbl.length t.revivals > 0 then begin
        match Value.Key_tbl.find_opt t.revivals key with
        | Some fl ->
          let tombstone = t.log_rows.(fl) in
          row.first_log <- fl;
          t.log_rows.(fl) <- row;
          Value.Key_tbl.remove t.revivals key;
          Some (fl, tombstone)
        | None -> None
      end
      else None
    in
    if Trail.recording t.trail then record_insert t key ~revived;
    Value.Key_tbl.replace t.data key row;
    t.bytes <- t.bytes + row_bytes key value;
    log_append t key row stamp;
    t.version <- t.version + 1;
    `Inserted
  | Some row ->
    if Value.equal row.value value then `Unchanged
    else begin
      if Trail.recording t.trail then record_update t row;
      let restamped = row.stamp <> stamp in
      t.bytes <- t.bytes + Value.modeled_bytes value - Value.modeled_bytes row.value;
      row.value <- value;
      row.stamp <- stamp;
      if restamped then begin
        row.first_log <- t.log_len;
        log_append t key row stamp
      end;
      t.version <- t.version + 1;
      t.value_updates <- t.value_updates + 1;
      `Updated
    end

let remove t key =
  match Value.Key_tbl.find_opt t.data key with
  | Some row ->
    if Trail.recording t.trail then record_remove t key row;
    Value.Key_tbl.remove t.data key;
    (* A re-insert at the row's own stamp is still possible only while the
       log's newest stamp equals it; remember where the row was first
       logged so a revival keeps its emission position. The old window's
       table is replaced, not reset, so an inverse can put it back whole. *)
    if t.log_len > 0 && t.log_stamps.(t.log_len - 1) = row.stamp then begin
      if t.revivals_stamp <> row.stamp then begin
        t.revivals <- Value.Key_tbl.create 8;
        t.revivals_stamp <- row.stamp
      end;
      Value.Key_tbl.replace t.revivals key row.first_log
    end;
    row.stamp <- min_int;  (* tombstone: the row's log entries go dead *)
    (* The log entries the row left behind stay allocated, so only the row
       itself is subtracted; log cost is reclaimed never, like the arrays. *)
    t.bytes <- t.bytes - row_bytes key row.value;
    t.version <- t.version + 1;
    t.removals <- t.removals + 1
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

let iter_range t ~lo ~hi f =
  if lo <= 0 then
    Value.Key_tbl.iter (fun key row -> if row.stamp < hi then f key row) t.data
  else begin
    let start = log_lower_bound t lo in
    (* A key removed and re-inserted within one timestamp (rebuild rounds)
       appears twice in the log with the same stamp; dedupe so every
       surviving row is visited exactly once. *)
    let seen = Value.Key_tbl.create (max 16 (t.log_len - start)) in
    for i = start to t.log_len - 1 do
      let s = t.log_stamps.(i) in
      if s < hi then begin
        let key = t.log_keys.(i) in
        match Value.Key_tbl.find_opt t.data key with
        | Some row when row.stamp = s ->
          if not (Value.Key_tbl.mem seen key) then begin
            Value.Key_tbl.replace seen key ();
            f key row
          end
        | Some _ | None -> ()
      end
    done
  end

(* Same visible behaviour as {!iter_range} — same rows, same values, same
   order — but the log walk tests entry currency through the logged row
   pointer instead of hashing every key into [data] and a dedupe table.
   [first_log] pins a same-stamp revival to its original entry, which is
   exactly where [iter_range]'s first-occurrence dedupe fires it. *)
let iter_delta t ~lo ~hi f =
  if lo <= 0 then
    Value.Key_tbl.iter (fun key row -> if row.stamp < hi then f key row) t.data
  else begin
    let start = log_lower_bound t lo in
    for i = start to t.log_len - 1 do
      let s = t.log_stamps.(i) in
      if s < hi then begin
        let row = t.log_rows.(i) in
        if row.stamp = s && row.first_log = i then f t.log_keys.(i) row
      end
    done
  end

let iter_log_suffix t ~from f =
  let from = max 0 from in
  let seen = Value.Key_tbl.create (max 16 (t.log_len - from)) in
  for i = from to t.log_len - 1 do
    let key = t.log_keys.(i) in
    match Value.Key_tbl.find_opt t.data key with
    | Some row when row.stamp = t.log_stamps.(i) ->
      if not (Value.Key_tbl.mem seen key) then begin
        Value.Key_tbl.replace seen key ();
        f key row
      end
    | Some _ | None -> ()
  done

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Per-column distinct-value counts (argument columns then the output),
   recomputed lazily and cached against the version: the planner asks for
   them only when a table's size bucket shifts, so the O(rows * columns)
   scan amortizes to nothing on steady-state workloads. *)
let column_distincts t =
  match t.distinct_cache with
  | Some (v, d) when v = t.version -> d
  | Some _ | None ->
    let cols = Schema.arity t.func + 1 in
    let tbls = Array.init cols (fun _ -> VTbl.create 64) in
    Value.Key_tbl.iter
      (fun key row ->
        Array.iteri (fun i v -> VTbl.replace tbls.(i) v ()) key;
        VTbl.replace tbls.(cols - 1) row.value ())
      t.data;
    let d = Array.map VTbl.length tbls in
    t.distinct_cache <- Some (t.version, d);
    d

(* ------------------------------------------------------------------ *)
(* Typed column readers (compiled join plans)                          *)
(* ------------------------------------------------------------------ *)

let column_ty (f : Schema.func) i : Ty.t =
  if i < Schema.arity f then f.Schema.arg_tys.(i) else f.Schema.ret_ty

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

let int_reader (f : Schema.func) i : (Value.t array -> row -> int) option =
  match column_ty f i with
  | Ty.Int | Ty.Bool | Ty.Sort _ ->
    Some
      (if i < Schema.arity f then fun key _ -> int_payload key.(i)
       else fun _ row -> int_payload row.value)
  | Ty.Unit | Ty.Rational | Ty.String | Ty.Set _ | Ty.Vec _ -> None

let copy t =
  let data = Value.Key_tbl.create (Value.Key_tbl.length t.data) in
  Value.Key_tbl.iter
    (fun k r ->
      Value.Key_tbl.replace data (Array.copy k)
        { value = r.value; stamp = r.stamp; first_log = r.first_log })
    t.data;
  let log_keys = Array.map Fun.id (Array.sub t.log_keys 0 (max 16 t.log_len)) in
  let log_stamps = Array.sub t.log_stamps 0 (max 16 t.log_len) in
  (* Re-point log entries at the copy's row records: entry [i] is live iff
     the copied row for its key says so (same currency rule as the walks). *)
  let log_rows = Array.make (max 16 t.log_len) dead_row in
  for i = 0 to t.log_len - 1 do
    match Value.Key_tbl.find_opt data t.log_keys.(i) with
    | Some r when r.stamp = t.log_stamps.(i) && r.first_log = i -> log_rows.(i) <- r
    | Some _ | None -> ()
  done;
  let revivals = Value.Key_tbl.create (max 8 (Value.Key_tbl.length t.revivals)) in
  Value.Key_tbl.iter (fun k fl -> Value.Key_tbl.replace revivals k fl) t.revivals;
  {
    func = t.func;
    uid = next_uid ();
    data;
    log_keys;
    log_stamps;
    log_rows;
    log_len = t.log_len;
    version = t.version;
    removals = t.removals;
    value_updates = t.value_updates;
    distinct_cache = None;
    bytes = t.bytes;
    revivals;
    revivals_stamp = t.revivals_stamp;
    trail = t.trail;
  }

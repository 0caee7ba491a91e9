exception Merge_conflict of { func : Symbol.t; old_value : Value.t; new_value : Value.t }
exception Internal_error of string

let c_unions = Telemetry.counter "db.unions"
let c_rebuild_rounds = Telemetry.counter "rebuild.rounds"
let c_rebuild_canon = Telemetry.counter "rebuild.tuples_canonicalized"
let c_rebuild_checked = Telemetry.counter "rebuild.rows_checked"

type t = {
  uf : Union_find.t;
  sorts : (Symbol.t, unit) Hashtbl.t;
  mutable id_sorts : Symbol.t array;  (* id -> declaring sort, dense *)
  funcs : (Symbol.t, Table.t) Hashtbl.t;
  mutable func_order : Symbol.t list;  (* reverse declaration order *)
  mutable timestamp : int;
  mutable changes : int;
  mutable merge_hook : (Schema.func -> Value.t -> Value.t -> Value.t) option;
  proofs : Proof_forest.t;
  trail : Trail.t;  (* shared with uf, proofs and every table *)
}

let dummy_sym = Symbol.intern "<none>"

let create ?(trail = Trail.create ()) () =
  {
    uf = Union_find.create ~trail ();
    sorts = Hashtbl.create 16;
    id_sorts = Array.make 64 dummy_sym;
    funcs = Hashtbl.create 32;
    func_order = [];
    timestamp = 0;
    changes = 0;
    merge_hook = None;
    proofs = Proof_forest.create ~trail ();
    trail;
  }

(* The writes below record their inverses while a transaction or scope is
   open; table, union-find and proof-forest writes record their own. *)
let recording db = Trail.recording db.trail

let rec restore_changes db changes () =
  let now = db.changes in
  db.changes <- changes;
  Trail.Entry (restore_changes db now)

let rec restore_timestamp db timestamp () =
  let now = db.timestamp in
  db.timestamp <- timestamp;
  Trail.Entry (restore_timestamp db now)

let bump_changes db =
  if recording db then begin
    let changes = db.changes in
    Trail.push db.trail (fun () -> restore_changes db changes ())
  end;
  db.changes <- db.changes + 1

let rec undeclare_sort db s () =
  Hashtbl.remove db.sorts s;
  Trail.Entry (redeclare_sort db s)

and redeclare_sort db s () =
  Hashtbl.replace db.sorts s ();
  Trail.Entry (undeclare_sort db s)

let declare_sort db s =
  if recording db && not (Hashtbl.mem db.sorts s) then
    Trail.push db.trail (fun () -> undeclare_sort db s ());
  Hashtbl.replace db.sorts s ()

let is_sort db s = Hashtbl.mem db.sorts s

let declare_func db (f : Schema.func) =
  if Hashtbl.mem db.funcs f.name then
    invalid_arg (Printf.sprintf "function %s is already declared" (Symbol.name f.name));
  if recording db then begin
    let order = db.func_order in
    let rec undo () =
      let table = Hashtbl.find db.funcs f.name and order' = db.func_order in
      Hashtbl.remove db.funcs f.name;
      db.func_order <- order;
      Trail.Entry
        (fun () ->
          Hashtbl.replace db.funcs f.name table;
          db.func_order <- order';
          Trail.Entry undo)
    in
    Trail.push db.trail undo
  end;
  Hashtbl.replace db.funcs f.name (Table.create ~trail:db.trail f);
  db.func_order <- f.name :: db.func_order

let find_func db name = Hashtbl.find_opt db.funcs name

let iter_tables db f =
  List.iter (fun name -> f (Hashtbl.find db.funcs name)) (List.rev db.func_order)

let set_merge_hook db hook = db.merge_hook <- Some hook

let set_sort db id sort =
  if id >= Array.length db.id_sorts then begin
    let bigger = Array.make (2 * Array.length db.id_sorts) dummy_sym in
    Array.blit db.id_sorts 0 bigger 0 (Array.length db.id_sorts);
    db.id_sorts <- bigger
  end;
  db.id_sorts.(id) <- sort

(* One entry covers the union-find slot and the id's sort. The sort needs
   restoring on redo: after a crossing pop undid an allocation, a later one
   may reuse the slot for another sort before a rollback redoes the first. *)
let rec unmake_id db () =
  let sort = db.id_sorts.(Union_find.size db.uf - 1) in
  Union_find.pop_set db.uf;
  Trail.Entry
    (fun () ->
      set_sort db (Union_find.push_set db.uf) sort;
      Trail.Entry (unmake_id db))

let fresh_id db sort =
  if recording db then Trail.push db.trail (fun () -> unmake_id db ());
  let id = Union_find.push_set db.uf in
  set_sort db id sort;
  Value.VId id

let sort_of_id db id = Ty.Sort db.id_sorts.(id)

let rec canon db (v : Value.t) =
  match v with
  | Value.VId i -> Value.VId (Union_find.find db.uf i)
  | Value.VSet xs -> Value.mk_set (List.map (canon db) xs)
  | Value.VVec xs -> Value.VVec (List.map (canon db) xs)
  | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> v

let canon_key db key = Array.map (canon db) key
let are_equal db a b = Value.equal (canon db a) (canon db b)

let rec is_canon db (v : Value.t) =
  match v with
  | Value.VId i -> Union_find.is_canonical db.uf i
  | Value.VSet xs -> List.for_all (is_canon db) xs
  | Value.VVec xs -> List.for_all (is_canon db) xs
  | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> true

let timestamp db = db.timestamp

let bump_timestamp db =
  if recording db then begin
    let timestamp = db.timestamp in
    Trail.push db.trail (fun () -> restore_timestamp db timestamp ())
  end;
  db.timestamp <- db.timestamp + 1
let change_counter db = db.changes

let lookup db table key =
  match Table.get table (canon_key db key) with
  | None -> None
  | Some row -> Some (canon db row.value)

let union db ?(reason = Proof_forest.Asserted) a b =
  match (canon db a, canon db b) with
  | Value.VId x, Value.VId y ->
    if x = y then Value.VId x
    else begin
      bump_changes db;
      Telemetry.bump c_unions 1;
      Proof_forest.record db.proofs x y reason;
      Value.VId (Union_find.union db.uf x y)
    end
  | va, vb ->
    if Value.equal va vb then va
    else
      invalid_arg
        (Printf.sprintf "union: cannot unify distinct interpreted constants %s and %s"
           (Value.to_string va) (Value.to_string vb))

let resolve_merge db (func : Schema.func) old_v new_v =
  match func.merge with
  | Schema.Merge_union -> union db ~reason:(Proof_forest.Congruence func.name) old_v new_v
  | Schema.Merge_panic ->
    raise (Merge_conflict { func = func.name; old_value = old_v; new_value = new_v })
  | Schema.Merge_expr _ ->
    (match db.merge_hook with
     | Some hook -> hook func old_v new_v
     | None -> raise (Internal_error "merge hook not installed"))

let set db table key value =
  let key = canon_key db key in
  let value = canon db value in
  match Table.get table key with
  | None ->
    (match Table.set_raw table key value ~stamp:db.timestamp with
     | `Inserted -> bump_changes db
     | `Updated | `Unchanged -> ())
  | Some row ->
    let old_v = canon db row.value in
    if not (Value.equal old_v value) then begin
      let merged = canon db (resolve_merge db (Table.func table) old_v value) in
      (* The merge expression may itself have modified this row (e.g. via
         recursive sets); re-read before writing. *)
      match Table.set_raw table key merged ~stamp:db.timestamp with
      | `Updated | `Inserted -> bump_changes db
      | `Unchanged -> ()
    end

let remove db table key =
  Table.remove table (canon_key db key)

(* Does a row hold only canonical ids in [cols], the table's id columns? *)
let row_is_canon db cols key (row : Table.row) =
  let arity = Array.length key in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length cols do
    let i = cols.(!k) in
    ok := is_canon db (if i < arity then key.(i) else row.value);
    incr k
  done;
  !ok

(* One repair round over a table: pull out all rows whose key or value
   mention a non-canonical id, then re-insert them canonically, letting
   [set] resolve the functional-dependency conflicts that canonicalization
   reveals (§4.2, §5.1 "Rebuilding Procedure"). Only the columns whose type
   can hold an id ({!Table.id_columns}) are checked; a table without any is
   skipped whole. *)
let repair_table db table =
  let cols = Table.id_columns table in
  if Array.length cols > 0 then begin
    Telemetry.bump c_rebuild_checked (Table.length table);
    let stale =
      Table.fold
        (fun key row acc -> if row_is_canon db cols key row then acc else (key, row.value) :: acc)
        table []
    in
    Telemetry.bump c_rebuild_canon (List.length stale);
    List.iter (fun (key, _) -> Table.remove table key) stale;
    List.iter (fun (key, value) -> set db table key value) stale
  end

let total_rows db =
  let n = ref 0 in
  iter_tables db (fun table -> n := !n + Table.length table);
  !n

let rebuild db =
  (* Only pay for a span (and emit events) when there is repair work: rebuild
     is called after every iteration and is usually a no-op. *)
  if Union_find.has_dirty db.uf then begin
    let emit = Telemetry.is_enabled () in
    let rows0 = if emit then total_rows db else 0 in
    let classes0 = if emit then Union_find.n_classes db.uf else 0 in
    Telemetry.span "db.rebuild" (fun () ->
        while Union_find.has_dirty db.uf do
          Telemetry.bump c_rebuild_rounds 1;
          Union_find.clear_dirty db.uf;
          iter_tables db (fun table -> repair_table db table)
        done);
    if emit then
      Telemetry.instant "db.rebuild.stat"
        [
          ("rows_before", Telemetry.Json.Int rows0);
          ("rows_after", Telemetry.Json.Int (total_rows db));
          ("classes_before", Telemetry.Json.Int classes0);
          ("classes_after", Telemetry.Json.Int (Union_find.n_classes db.uf));
        ]
  end

let explain db a b =
  match (canon db a, canon db b) with
  | Value.VId _, Value.VId _ -> (
    match (a, b) with
    | Value.VId x, Value.VId y -> Proof_forest.explain db.proofs x y
    | _ -> None)
  | va, vb -> if Value.equal va vb then Some [] else None

let class_history db v =
  match canon db v with
  | Value.VId root ->
    Proof_forest.edges_in_class db.proofs ~member:root ~find:(Union_find.find db.uf)
  | _ -> []

let n_ids db = Union_find.size db.uf
let n_classes db = Union_find.n_classes db.uf

let total_log_entries db =
  let n = ref 0 in
  iter_tables db (fun table -> n := !n + Table.log_length table);
  !n

(* Modeled footprint: the incrementally-maintained table counters plus a
   fixed cost per allocated id (union-find slot, sort slot, proof-forest
   slot) and per proof edge. A pure function of the database contents, so
   a byte budget trips at the same iteration at any jobs count. *)
let id_cost = 40
let proof_edge_cost = 24

let modeled_bytes db =
  let n =
    ref ((Union_find.size db.uf * id_cost) + (Proof_forest.n_edges db.proofs * proof_edge_cost))
  in
  iter_tables db (fun table -> n := !n + Table.modeled_bytes table);
  !n


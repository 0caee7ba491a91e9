exception Load_error of string

let error fmt = Format.kasprintf (fun s -> raise (Load_error s)) fmt

(* ---- values <-> s-expressions ---- *)

let rec sexp_of_value (v : Value.t) : Sexpr.t =
  match v with
  | Value.VUnit -> Sexpr.List [ Sexpr.Atom "unit" ]
  | Value.VBool b -> Sexpr.Atom (string_of_bool b)
  | Value.VInt i -> Sexpr.Int i
  | Value.VRat r ->
    Sexpr.List [ Sexpr.Atom "rat"; Sexpr.String (Rat.to_string r) ]
  | Value.VStr s -> Sexpr.String (Symbol.name s)
  | Value.VId i -> Sexpr.List [ Sexpr.Atom "id"; Sexpr.Int i ]
  | Value.VSet xs -> Sexpr.List (Sexpr.Atom "set" :: List.map sexp_of_value xs)
  | Value.VVec xs -> Sexpr.List (Sexpr.Atom "vec" :: List.map sexp_of_value xs)

let rec value_of_sexp ~remap (s : Sexpr.t) : Value.t =
  match s with
  | Sexpr.List [ Sexpr.Atom "unit" ] -> Value.VUnit
  | Sexpr.Atom "true" -> Value.VBool true
  | Sexpr.Atom "false" -> Value.VBool false
  | Sexpr.Int i -> Value.VInt i
  | Sexpr.Rational r -> Value.VRat r
  | Sexpr.List [ Sexpr.Atom "rat"; Sexpr.String r ] -> Value.VRat (Rat.of_string r)
  | Sexpr.String str -> Value.VStr (Symbol.intern str)
  | Sexpr.List [ Sexpr.Atom "id"; Sexpr.Int id ] -> remap id
  | Sexpr.List (Sexpr.Atom "set" :: xs) -> Value.mk_set (List.map (value_of_sexp ~remap) xs)
  | Sexpr.List (Sexpr.Atom "vec" :: xs) -> Value.VVec (List.map (value_of_sexp ~remap) xs)
  | _ -> error "malformed value %s" (Sexpr.to_string s)

(* ---- canonical id numbering ----

   The dump renumbers e-class ids by {e content}, not by their allocation
   history: two databases holding the same tables modulo a renaming of ids
   serialize to identical bytes. Crash recovery depends on this — a
   recovered engine (checkpoint load + journal replay) allocates different
   concrete ids and different union-find representatives than the
   uninterrupted process it mirrors, yet must produce an identical dump.

   The numbering is computed by color refinement with individualization:
   every id starts colored by its sort, and is repeatedly re-colored by the
   multiset of rows it occurs in (rendered with the current colors, the id
   itself as a hole). When refinement stalls with a class of
   indistinguishable ids, one member is individualized and refinement
   resumes; for ids the refinement cannot split, any choice of member is an
   automorphism of the database in all but adversarially-constructed cases,
   so the emitted bytes do not depend on the choice. *)

let canonical_numbering (rows : (string * Value.t array * Value.t) list)
    ~(sort_of : int -> string) : (int, int) Hashtbl.t =
  let present : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec note (v : Value.t) =
    match v with
    | Value.VId i -> Hashtbl.replace present i ()
    | Value.VSet xs | Value.VVec xs -> List.iter note xs
    | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> ()
  in
  List.iter
    (fun (_, key, v) ->
      Array.iter note key;
      note v)
    rows;
  let ids = Hashtbl.fold (fun i () acc -> i :: acc) present [] |> List.sort Int.compare in
  let numbering : (int, int) Hashtbl.t = Hashtbl.create (List.length ids) in
  if ids = [] then numbering
  else begin
    let n = List.length ids in
    let color : (int, string) Hashtbl.t = Hashtbl.create n in
    List.iter (fun i -> Hashtbl.replace color i ("s:" ^ sort_of i)) ids;
    (* rows mentioning each id, built once *)
    let occ : (int, (string * Value.t array * Value.t) list ref) Hashtbl.t = Hashtbl.create n in
    List.iter (fun i -> Hashtbl.replace occ i (ref [])) ids;
    List.iter
      (fun ((_, key, v) as row) ->
        let seen : (int, unit) Hashtbl.t = Hashtbl.create 4 in
        let rec mark (x : Value.t) =
          match x with
          | Value.VId i ->
            if not (Hashtbl.mem seen i) then begin
              Hashtbl.replace seen i ();
              let r = Hashtbl.find occ i in
              r := row :: !r
            end
          | Value.VSet xs | Value.VVec xs -> List.iter mark xs
          | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> ()
        in
        Array.iter mark key;
        mark v)
      rows;
    let render_row ~self (f, key, v) =
      let rec render buf (x : Value.t) =
        match x with
        | Value.VId i ->
          if i = self then Buffer.add_string buf "<*>"
          else begin
            Buffer.add_char buf '<';
            Buffer.add_string buf (Hashtbl.find color i);
            Buffer.add_char buf '>'
          end
        | Value.VSet xs ->
          (* set order is id-number-dependent; render as a sorted multiset of
             member renders so the signature is content-only *)
          let parts =
            List.map
              (fun m ->
                let b = Buffer.create 16 in
                render b m;
                Buffer.contents b)
              xs
            |> List.sort String.compare
          in
          Buffer.add_char buf '{';
          List.iter
            (fun p ->
              Buffer.add_string buf p;
              Buffer.add_char buf ' ')
            parts;
          Buffer.add_char buf '}'
        | Value.VVec xs ->
          Buffer.add_char buf '[';
          List.iter
            (fun m ->
              render buf m;
              Buffer.add_char buf ' ')
            xs;
          Buffer.add_char buf ']'
        | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ ->
          Buffer.add_string buf (Value.to_string x)
      in
      let buf = Buffer.create 64 in
      Buffer.add_char buf '(';
      Buffer.add_string buf f;
      Array.iter
        (fun x ->
          Buffer.add_char buf ' ';
          render buf x)
        key;
      Buffer.add_string buf " -> ";
      render buf v;
      Buffer.add_char buf ')';
      Buffer.contents buf
    in
    let distinct_colors () =
      let s : (string, unit) Hashtbl.t = Hashtbl.create n in
      List.iter (fun i -> Hashtbl.replace s (Hashtbl.find color i) ()) ids;
      Hashtbl.length s
    in
    let refine_round () =
      let long : (int * string) list =
        List.map
          (fun i ->
            let sigs =
              List.map (render_row ~self:i) !(Hashtbl.find occ i) |> List.sort String.compare
            in
            (i, Hashtbl.find color i ^ "|" ^ String.concat ";" sigs))
          ids
      in
      (* compress long signatures to dense ranks to keep colors short *)
      let sorted = List.sort_uniq String.compare (List.map snd long) in
      let rank : (string, string) Hashtbl.t = Hashtbl.create n in
      List.iteri (fun k s -> Hashtbl.replace rank s (Printf.sprintf "%06d" k)) sorted;
      List.iter (fun (i, s) -> Hashtbl.replace color i (Hashtbl.find rank s)) long
    in
    let individualize () =
      (* group by color; split the first tied class by marking its member
         with the smallest concrete id *)
      let classes : (string, int list ref) Hashtbl.t = Hashtbl.create n in
      List.iter
        (fun i ->
          let c = Hashtbl.find color i in
          match Hashtbl.find_opt classes c with
          | Some r -> r := i :: !r
          | None -> Hashtbl.replace classes c (ref [ i ]))
        ids;
      let tied =
        Hashtbl.fold (fun c r acc -> if List.length !r > 1 then (c, !r) :: acc else acc) classes []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      match tied with
      | [] -> ()
      | (c, members) :: _ ->
        let m = List.fold_left min (List.hd members) members in
        Hashtbl.replace color m (c ^ "!")
    in
    let continue_ = ref true in
    let classes = ref (distinct_colors ()) in
    while !continue_ do
      refine_round ();
      let classes' = distinct_colors () in
      if classes' = n then continue_ := false
      else if classes' > !classes then classes := classes'
      else begin
        individualize ();
        classes := !classes + 1
      end
    done;
    let in_order =
      List.sort (fun a b -> String.compare (Hashtbl.find color a) (Hashtbl.find color b)) ids
    in
    List.iteri (fun k i -> Hashtbl.replace numbering i k) in_order;
    numbering
  end

(* ---- dump ---- *)

(* Record in [sorts] the sort of every id [v] mentions. *)
let rec note_sorts db sorts (v : Value.t) =
  match v with
  | Value.VId id ->
    if not (Hashtbl.mem sorts id) then begin
      match Database.sort_of_id db id with
      | Ty.Sort s -> Hashtbl.replace sorts id (Symbol.name s)
      | _ -> ()
    end
  | Value.VSet xs | Value.VVec xs -> List.iter (note_sorts db sorts) xs
  | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> ()

(* Rebuild, then collect the rows of every non-empty table, in table order,
   and the sort of every id they mention. *)
let collect (eng : Engine.t) =
  Engine.rebuild eng;
  let db = Engine.database eng in
  let sorts : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let note = note_sorts db sorts in
  let tables = ref [] in
  Database.iter_tables db (fun table ->
      let rows = ref [] in
      Table.iter
        (fun key row ->
          Array.iter note key;
          note row.Table.value;
          rows := (key, row.Table.value) :: !rows)
        table;
      if !rows <> [] then
        tables := (Symbol.name (Table.func table).Schema.name, List.rev !rows) :: !tables);
  (sorts, List.rev !tables)

let database_sexp ~(ids : (int * string) list)
    ~(tables : (string * (Value.t array * Value.t) list) list) : Sexpr.t =
  let row_sexp (key, value) =
    Sexpr.List
      [ Sexpr.List (Array.to_list (Array.map sexp_of_value key)); sexp_of_value value ]
  in
  Sexpr.List
    (Sexpr.Atom "database"
     :: Sexpr.List
          (Sexpr.Atom "ids"
           :: List.map (fun (id, sort) -> Sexpr.List [ Sexpr.Int id; Sexpr.Atom sort ]) ids)
     :: List.map
          (fun (fname, rows) ->
            Sexpr.List (Sexpr.Atom "table" :: Sexpr.Atom fname :: List.map row_sexp rows))
          tables)

let by_id (a, _) (b, _) = Int.compare a b

let dump (eng : Engine.t) : Sexpr.t =
  let sorts, tables = collect eng in
  (* The dump is canonical — rows, tables and ids are sorted, and ids are
     renumbered by content — so two databases with the same contents
     serialize identically regardless of hash-table iteration order,
     insertion history, union-find representatives or concrete id
     allocation. Rollback/equivalence tests, snapshot diffing and crash
     recovery rely on this. *)
  let numbering =
    canonical_numbering
      (List.concat_map (fun (fname, rows) -> List.map (fun (k, v) -> (fname, k, v)) rows) tables)
      ~sort_of:(Hashtbl.find sorts)
  in
  let rec renumber (v : Value.t) : Value.t =
    match v with
    | Value.VId i -> Value.VId (Hashtbl.find numbering i)
    | Value.VSet xs -> Value.mk_set (List.map renumber xs)
    | Value.VVec xs -> Value.VVec (List.map renumber xs)
    | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ -> v
  in
  let compare_row (k1, v1) (k2, v2) =
    let rec arrays i =
      if i >= Array.length k1 || i >= Array.length k2 then
        Int.compare (Array.length k1) (Array.length k2)
      else
        match Value.compare k1.(i) k2.(i) with 0 -> arrays (i + 1) | c -> c
    in
    match arrays 0 with 0 -> Value.compare v1 v2 | c -> c
  in
  let tables =
    List.map
      (fun (fname, rows) ->
        ( fname,
          List.map (fun (key, v) -> (Array.map renumber key, renumber v)) rows
          |> List.sort compare_row ))
      tables
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let ids =
    Hashtbl.fold (fun old_id sort acc -> (Hashtbl.find numbering old_id, sort) :: acc) sorts []
    |> List.sort by_id
  in
  database_sexp ~ids ~tables

let dump_string eng = Sexpr.to_string (dump eng)

(* ---- load ---- *)

let load (eng : Engine.t) (s : Sexpr.t) : unit =
  let db = Engine.database eng in
  (* Loading merges nothing: the target must hold no data (no ids, no rows).
     Declarations are fine — they are required, since a snapshot carries
     only data. Loading into a populated database has no well-defined
     meaning (id remapping could silently alias or duplicate rows), so it is
     an explicit error rather than an unspecified merge. *)
  if Database.n_ids db > 0 || Database.total_rows db > 0 then
    error
      "load into a non-empty database (%d ids, %d rows); load only into a freshly \
       declared engine"
      (Database.n_ids db) (Database.total_rows db);
  match s with
  | Sexpr.List (Sexpr.Atom "database" :: Sexpr.List (Sexpr.Atom "ids" :: id_entries) :: tables) ->
    (* allocate a fresh id per dumped id; a dump (canonical or a
       checkpoint's raw one) names each e-class by one id, so the partition
       is implicit in row sharing *)
    let remap_tbl : (int, Value.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun entry ->
        match entry with
        | Sexpr.List [ Sexpr.Int id; Sexpr.Atom sort ] ->
          let sym = Symbol.intern sort in
          if not (Database.is_sort db sym) then error "unknown sort %s (re-declare the schema first)" sort;
          Hashtbl.replace remap_tbl id (Database.fresh_id db sym)
        | _ -> error "malformed id entry %s" (Sexpr.to_string entry))
      id_entries;
    let remap id =
      match Hashtbl.find_opt remap_tbl id with
      | Some v -> v
      | None -> error "row references undumped id %d" id
    in
    List.iter
      (fun table_sexp ->
        match table_sexp with
        | Sexpr.List (Sexpr.Atom "table" :: Sexpr.Atom fname :: rows) ->
          let table =
            match Database.find_func db (Symbol.intern fname) with
            | Some t -> t
            | None -> error "unknown function %s (re-declare the schema first)" fname
          in
          List.iter
            (fun row ->
              match row with
              | Sexpr.List [ Sexpr.List key; value ] ->
                let key = Array.of_list (List.map (value_of_sexp ~remap) key) in
                let value = value_of_sexp ~remap value in
                Database.set db table key value
              | _ -> error "malformed row %s" (Sexpr.to_string row))
            rows
        | _ -> error "malformed table %s" (Sexpr.to_string table_sexp))
      tables;
    Database.rebuild db
  | _ -> error "expected (database ...)"

let load_string eng src = load eng (Sexpr.parse_one src)

(* ---- snapshot files (the CLI's --dump / --load) ----

   {v
   egglog-snapshot <format-version>\n
   <payload-length> <crc32-hex>\n
   <payload bytes>
   v}

   Written by {!Journal.atomic_write}, so a crash mid-write can never
   truncate or corrupt an existing file. Reads verify magic, version,
   length and checksum, turning every corruption mode into a clear
   {!Load_error}. *)

let format_version = 1
let snapshot_magic = "egglog-snapshot"

let write_snapshot eng path =
  let payload = dump_string eng ^ "\n" in
  Journal.atomic_write ~kind:"snapshot" path
    [
      Printf.sprintf "%s %d\n%d %s\n" snapshot_magic format_version (String.length payload)
        (Checksum.to_hex (Checksum.crc32 payload));
      payload;
    ]

let read_snapshot path : string =
  let contents =
    try Journal.read_file path with Journal.Journal_error msg -> error "%s" msg
  in
  let fail_line () =
    error "%s is not a versioned %s file (magic mismatch; a pre-versioned snapshot?)" path
      snapshot_magic
  in
  match String.index_opt contents '\n' with
  | None -> fail_line ()
  | Some nl1 -> (
    let line1 = String.sub contents 0 nl1 in
    match String.split_on_char ' ' line1 with
    | m :: version :: _ when String.equal m snapshot_magic -> (
      (match int_of_string_opt version with
       | Some v when v = format_version -> ()
       | Some v ->
         error "%s: unsupported %s format version %d (this build reads version %d)" path
           snapshot_magic v format_version
       | None -> fail_line ());
      match String.index_from_opt contents (nl1 + 1) '\n' with
      | None -> error "%s: truncated header" path
      | Some nl2 -> (
        let line2 = String.sub contents (nl1 + 1) (nl2 - nl1 - 1) in
        match String.split_on_char ' ' line2 with
        | [ len_s; crc_s ] -> (
          match (int_of_string_opt len_s, Checksum.of_hex crc_s) with
          | Some len, Some crc ->
            let body_start = nl2 + 1 in
            let avail = String.length contents - body_start in
            if avail < len then
              error "%s: truncated payload (%d of %d bytes)" path avail len
            else begin
              let payload = String.sub contents body_start len in
              if avail > len then error "%s: trailing garbage after payload" path;
              if Checksum.crc32 payload <> crc then
                error "%s: payload checksum mismatch (corrupted file)" path;
              payload
            end
          | _ -> error "%s: malformed payload header %S" path line2)
        | _ -> error "%s: malformed payload header %S" path line2))
    | _ -> fail_line ())

let load_snapshot eng path =
  match Sexpr.parse_one (read_snapshot path) with
  | s -> load eng s
  | exception Sexpr.Parse_error { message; _ } ->
    error "%s: unparsable snapshot payload: %s" path message

(* ---- checkpoints (the first record of a journal) ---- *)

type checkpoint = {
  ck_committed : int;
  ck_program : Ast.command list;
  ck_database : Sexpr.t;
}

(* A checkpoint is read back only by {!load}, which gives every dumped id a
   fresh one. So it needs neither the canonical numbering nor the row sort:
   it carries the rebuilt database's own ids (canonical representatives), in
   table order. It is printed straight into one buffer, in two passes over
   the tables — the sorts of the ids the rows mention, then the rows — in
   {!dump}'s grammar, the bytes {!Sexpr.to_string} prints for that tree;
   only one cell's s-expression exists at a time. *)
let checkpoint_payload eng ~committed =
  Engine.rebuild eng;
  let db = Engine.database eng in
  let sorts : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let note = note_sorts db sorts in
  Database.iter_tables db (fun table ->
      Table.iter
        (fun key row ->
          Array.iter note key;
          note row.Table.value)
        table);
  let buf = Buffer.create ((32 * Database.total_rows db) + 256) in
  Buffer.add_string buf "(checkpoint (committed ";
  Buffer.add_string buf (Int.to_string committed);
  Buffer.add_string buf ") (program";
  List.iter
    (fun cmd ->
      Buffer.add_char buf ' ';
      Sexpr.to_buffer buf (Frontend.sexp_of_command cmd))
    (Engine.decl_commands eng);
  Buffer.add_string buf ") (database (ids";
  Hashtbl.fold (fun id sort acc -> (id, sort) :: acc) sorts []
  |> List.sort by_id
  |> List.iter (fun (id, sort) ->
         Buffer.add_string buf " (";
         Buffer.add_string buf (Int.to_string id);
         Buffer.add_char buf ' ';
         Buffer.add_string buf sort;
         Buffer.add_char buf ')');
  Buffer.add_char buf ')';
  Database.iter_tables db (fun table ->
      if Table.length table > 0 then begin
        Buffer.add_string buf " (table ";
        Buffer.add_string buf (Symbol.name (Table.func table).Schema.name);
        Table.iter
          (fun key row ->
            Buffer.add_string buf " ((";
            Array.iteri
              (fun i v ->
                if i > 0 then Buffer.add_char buf ' ';
                Sexpr.to_buffer buf (sexp_of_value v))
              key;
            Buffer.add_string buf ") ";
            Sexpr.to_buffer buf (sexp_of_value row.Table.value);
            Buffer.add_char buf ')')
          table;
        Buffer.add_char buf ')'
      end);
  Buffer.add_string buf "))\n";
  Buffer.contents buf

let parse_checkpoint payload =
  match Sexpr.parse_one payload with
  | Sexpr.List
      [
        Sexpr.Atom "checkpoint";
        Sexpr.List [ Sexpr.Atom "committed"; Sexpr.Int committed ];
        Sexpr.List (Sexpr.Atom "program" :: program);
        db;
      ] ->
    let commands =
      try List.concat_map Frontend.command_of_sexp program
      with Frontend.Syntax_error msg -> error "bad checkpoint program: %s" msg
    in
    { ck_committed = committed; ck_program = commands; ck_database = db }
  | _ -> error "malformed checkpoint payload"
  | exception Sexpr.Parse_error { message; _ } ->
    error "unparsable checkpoint payload: %s" message

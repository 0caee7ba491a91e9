exception Internal_error of { in_func : Symbol.t option; detail : string }

let internal ?in_func fmt =
  Format.kasprintf (fun detail -> raise (Internal_error { in_func; detail })) fmt

let c_scanned = Telemetry.counter "join.tuples_scanned"
let c_trie_builds = Telemetry.counter "join.trie_builds"

(* Value-based histogram (depths, not durations): buckets are
   byte-identical from run to run. *)
let h_trie_depth = Telemetry.histogram "join.trie_depth"
let c_index_builds = Telemetry.counter "join.index_builds"
let c_cache_hits = Telemetry.counter "join.cache_hits"
let c_cache_misses = Telemetry.counter "join.cache_misses"
let c_cache_lookups = Telemetry.counter "join.cache_lookups"
let c_index_patched = Telemetry.counter "join.index_patched"
let c_retracted = Telemetry.counter "join.rows_retracted"
let c_yielded = Telemetry.counter "join.matches_yielded"

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type trie = Leaf | Node of trie VTbl.t

type stamp_range = { lo : int; hi : int }

let all_rows = { lo = 0; hi = max_int }

(* Per-position row checks derived from an atom's argument pattern. The
   analysis itself lives in {!Plan_compile.shape_atom}, so the lowered
   kernels and the cache keys derived from checks + sources read one
   description of an atom. *)
type check = Plan_compile.check =
  | Check_const of int * Value.t  (* position must equal the literal *)
  | Check_same of int * int  (* position must equal an earlier position *)

type atom_plan = {
  ap_table : Table.t;
  ap_checks : check list;
  ap_sources : int array;  (* row positions feeding the trie path, in order *)
  ap_vars : int array;  (* the query var at each path level *)
}

let resolve_table db (f : Schema.func) : Table.t =
  match Database.find_func db f.Schema.name with
  | Some t -> t
  | None ->
    internal ~in_func:f.Schema.name "no table for function %s (popped scope?)"
      (Symbol.name f.Schema.name)

let plan_over table (sh : Plan_compile.shape) : atom_plan =
  {
    ap_table = table;
    ap_checks = sh.Plan_compile.sh_checks;
    ap_sources = sh.Plan_compile.sh_sources;
    ap_vars = sh.Plan_compile.sh_vars;
  }

let plan_of_shape db (sh : Plan_compile.shape) =
  plan_over (resolve_table db sh.Plan_compile.sh_func) sh

(* Cell [i] of a version: key position [i], or the output when i = arity. *)
let cell key value i = if i < Array.length key then key.(i) else value

let row_passes (plan : atom_plan) key value =
  List.for_all
    (function
      | Check_const (i, v) -> Value.equal (cell key value i) v
      | Check_same (i, j) -> Value.equal (cell key value i) (cell key value j))
    plan.ap_checks

(* Insert one passing version's path into a trie rooted at [root].
   Idempotent: re-inserting walks the same path. *)
let trie_add_row (plan : atom_plan) root ~depth key value =
  let node = ref root in
  for level = 0 to depth - 1 do
    let v = cell key value plan.ap_sources.(level) in
    if level = depth - 1 then VTbl.replace !node v Leaf
    else begin
      match VTbl.find_opt !node v with
      | Some (Node t) -> node := t
      | Some Leaf -> assert false
      | None ->
        let t = VTbl.create 8 in
        VTbl.replace !node v (Node t);
        node := t
    end
  done

(* Remove one version's path, pruning the nodes it leaves empty so node
   sizes (the join's smallest-cursor choice, the [unsat] test) are what a
   fresh build would have. Paths are per row — every column is a source or
   pinned by a check (Plan_compile.shape_atom) — so no other row shares the
   leaf. Returns whether the path was there. *)
let trie_remove_row (plan : atom_plan) root ~depth key value =
  let rec go node level =
    let v = cell key value plan.ap_sources.(level) in
    if level = depth - 1 then
      VTbl.mem node v
      && begin
        VTbl.remove node v;
        true
      end
    else
      match VTbl.find_opt node v with
      | Some (Node child) ->
        let removed = go child (level + 1) in
        if VTbl.length child = 0 then VTbl.remove node v;
        removed
      | Some Leaf | None -> false
  in
  go root 0

let build_trie (plan : atom_plan) (range : stamp_range) : trie =
  let depth = Array.length plan.ap_sources in
  Telemetry.bump c_trie_builds 1;
  Telemetry.hist_record h_trie_depth (float_of_int depth);
  let scanned = ref 0 in
  let result =
  if depth = 0 then begin
    (* Fully ground atom: Leaf iff some row passes the checks. *)
    let found = ref false in
    (try
       Table.iter_delta plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
           incr scanned;
           if row_passes plan key row.value then begin
             found := true;
             raise Exit
           end)
     with Exit -> ());
    if !found then Leaf else Node (VTbl.create 0)
  end
  else begin
    let root = VTbl.create 64 in
    Table.iter_delta plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
        incr scanned;
        if row_passes plan key row.value then trie_add_row plan root ~depth key row.value);
    Node root
  end
  in
  Telemetry.bump c_scanned !scanned;
  result

(* The memo holds both kinds of built structure. Full-table entries
   (lo = 0, hi = max_int) live in the persistent tier and follow their
   table through its change feed. Delta and windowed entries go to the
   scratch tier, cleared each iteration. *)
type built = B_trie of trie | B_index of Value.t array list Value.Key_tbl.t

(* Structured cache key. The old scheme concatenated ints and printed
   values with ad-hoc delimiters into one string, which both allowed
   collisions (values may contain any delimiter) and could not tell two
   tables for one function apart (two engines sharing a cache, whose
   version counters may coincide). Comparing fields —
   with [Value.equal] for check constants and the table's globally unique
   [uid] for identity — removes both failure modes. *)
type cache_key = {
  k_kind : int;  (* 0 = trie, 1 = index *)
  k_table : int;  (* Table.uid of the table the entry was built over *)
  k_sources : int array;
  k_checks : check list;
  k_lo : int;
  k_hi : int;
  k_proj : int array;  (* index keys only; [||] for tries *)
  k_rest : int array;
}

module KTbl = Hashtbl.Make (struct
  type t = cache_key

  let equal_check c1 c2 =
    match (c1, c2) with
    | Check_const (i, v), Check_const (j, w) -> i = j && Value.equal v w
    | Check_same (i, j), Check_same (i', j') -> i = i' && j = j'
    | Check_const _, Check_same _ | Check_same _, Check_const _ -> false

  let equal a b =
    a.k_kind = b.k_kind && a.k_table = b.k_table && a.k_lo = b.k_lo && a.k_hi = b.k_hi
    && a.k_sources = b.k_sources && a.k_proj = b.k_proj && a.k_rest = b.k_rest
    && List.compare_lengths a.k_checks b.k_checks = 0
    && List.for_all2 equal_check a.k_checks b.k_checks

  let hash k =
    let h = ref (((k.k_kind * 31) + k.k_table) * 31 + k.k_lo) in
    let mix x = h := ((!h * 31) + x) land max_int in
    mix (k.k_hi land 0xffff);
    Array.iter mix k.k_sources;
    Array.iter mix k.k_proj;
    Array.iter mix k.k_rest;
    List.iter
      (function
        | Check_const (i, v) -> mix ((i * 65599) + Value.hash v)
        | Check_same (i, j) -> mix ((i * 65599) + j + 1))
      k.k_checks;
    !h
end)

(* A persistent entry and the feed position of the table it holds. *)
type pentry = { mutable pe_built : built; mutable pe_mark : Table.mark }

(* Entries go stale only between phases: the database is read-only while
   a search runs, so no entry is patched while a search holds it. *)
type cache = { persistent : pentry KTbl.t; scratch : built KTbl.t }

let new_cache () : cache = { persistent = KTbl.create 64; scratch = KTbl.create 64 }

let clear_scratch cache = KTbl.reset cache.scratch

let clear_all cache =
  KTbl.reset cache.persistent;
  KTbl.reset cache.scratch

let mk_key kind (plan : atom_plan) (range : stamp_range) ~proj ~rest =
  {
    k_kind = kind;
    k_table = Table.uid plan.ap_table;
    (* an index is fully determined by proj + rest + checks + window; its
       source layout varies with the plan's variable order, so keying on it
       would needlessly duplicate identical indexes across rules *)
    k_sources = (if kind = 1 then [||] else plan.ap_sources);
    k_checks = plan.ap_checks;
    k_lo = range.lo;
    k_hi = range.hi;
    k_proj = proj;
    k_rest = rest;
  }

let is_full range = range.lo = 0 && range.hi = max_int

(* Bring a trie that held the table at some mark up to date: for each
   touched key, take out the version at the mark, then put in the current
   one. The result holds the same paths as a fresh build. *)
let patch_trie (plan : atom_plan) (trie : trie) (changes : Table.change array) : trie =
  let depth = Array.length plan.ap_sources in
  let retracted = ref 0 in
  (* a change's old and new versions, when they pass the atom's checks *)
  let old_version (ch : Table.change) =
    match ch.retracted with
    | Some v when row_passes plan ch.key v -> Some v
    | Some _ | None -> None
  and new_version (ch : Table.change) =
    match ch.current with
    | Some row when row_passes plan ch.key row.value -> Some row.value
    | Some _ | None -> None
  in
  let result =
    if depth = 0 then
      (* A ground atom is passed by at most one row: Leaf iff it is present. *)
      Array.fold_left
        (fun trie ch ->
          let trie =
            match (old_version ch, trie) with
            | Some _, Leaf ->
              incr retracted;
              Node (VTbl.create 0)
            | _ -> trie
          in
          if Option.is_some (new_version ch) then Leaf else trie)
        trie changes
    else begin
      match trie with
      | Leaf -> assert false
      | Node root ->
        Array.iter
          (fun (ch : Table.change) ->
            Option.iter
              (fun v -> if trie_remove_row plan root ~depth ch.key v then incr retracted)
              (old_version ch);
            Option.iter (trie_add_row plan root ~depth ch.key) (new_version ch))
          changes;
        trie
    end
  in
  Telemetry.bump c_scanned (Array.length changes);
  Telemetry.bump c_retracted !retracted;
  result

(* Hash index over an atom: projected shared-variable values -> the values
   of the atom's remaining variables, one entry per passing row. *)
let index_add (plan : atom_plan) index ~proj ~rest key value =
  if row_passes plan key value then begin
    let k = Array.map (cell key value) proj in
    let v = Array.map (cell key value) rest in
    let existing = try Value.Key_tbl.find index k with Not_found -> [] in
    Value.Key_tbl.replace index k (v :: existing)
  end

let build_index ?(size = 64) (plan : atom_plan) (range : stamp_range)
    ~(proj : int array) ~(rest : int array) =
  Telemetry.bump c_index_builds 1;
  let scanned = ref 0 in
  let index : Value.t array list Value.Key_tbl.t = Value.Key_tbl.create size in
  Table.iter_delta plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
      incr scanned;
      index_add plan index ~proj ~rest key row.value);
  Telemetry.bump c_scanned !scanned;
  index

(* The index counterpart of [patch_trie]. Entries are per row (proj + rest
   cover every source), so the retracted versions are gathered per
   projected key and each affected entry list is filtered once — a
   low-cardinality key costs one pass, not one pass per removal — before
   the current versions go in. *)
let patch_index (plan : atom_plan) index (changes : Table.change array) ~proj ~rest =
  let gone = Value.Key_tbl.create 16 in
  Array.iter
    (fun (ch : Table.change) ->
      match ch.retracted with
      | Some value when row_passes plan ch.key value ->
        let k = Array.map (cell ch.key value) proj in
        let v = Array.map (cell ch.key value) rest in
        Value.Key_tbl.replace gone k
          (v :: Option.value ~default:[] (Value.Key_tbl.find_opt gone k))
      | Some _ | None -> ())
    changes;
  let retracted = ref 0 in
  Value.Key_tbl.iter
    (fun k vs ->
      match Value.Key_tbl.find_opt index k with
      | None -> ()
      | Some entries ->
        let is_gone =
          match vs with
          | [ v ] -> Array.for_all2 Value.equal v
          | _ ->
            let set = Value.Key_tbl.create (List.length vs) in
            List.iter (fun v -> Value.Key_tbl.replace set v ()) vs;
            Value.Key_tbl.mem set
        in
        let kept = List.filter (fun e -> not (is_gone e)) entries in
        retracted := !retracted + List.length entries - List.length kept;
        if kept = [] then Value.Key_tbl.remove index k else Value.Key_tbl.replace index k kept)
    gone;
  Array.iter
    (fun (ch : Table.change) ->
      Option.iter (fun (row : Table.row) -> index_add plan index ~proj ~rest ch.key row.value)
        ch.current)
    changes;
  Telemetry.bump c_scanned (Array.length changes);
  Telemetry.bump c_retracted !retracted

(* One lookup through the cache. Full-range structures
   live in the persistent tier: a hit when the table is unchanged since
   the entry's mark, patched from the change feed when it changed, rebuilt
   when an inverse cut the feed or the feed touched at least as many keys
   as the table has rows (patching would cost more than building).
   Windowed structures live in the scratch tier. *)
let cached cache kind (plan : atom_plan) range ~proj ~rest ~build ~patch =
  match cache with
  | None -> build ()
  | Some c ->
    Telemetry.bump c_cache_lookups 1;
    let table = plan.ap_table in
    let key = mk_key kind plan range ~proj ~rest in
    let hit built =
      Telemetry.bump c_cache_hits 1;
      built
    in
    let miss store =
      Telemetry.bump c_cache_misses 1;
      let built = build () in
      store built;
      built
    in
    if is_full range then begin
      let store built =
        KTbl.replace c.persistent key { pe_built = built; pe_mark = Table.mark table }
      in
      match KTbl.find_opt c.persistent key with
      | Some pe when Table.unchanged_since table pe.pe_mark -> hit pe.pe_built
      | Some pe -> (
        match Table.changes_since table pe.pe_mark with
        | Some changes when Array.length changes < Table.length table ->
          pe.pe_built <- patch pe.pe_built changes;
          pe.pe_mark <- Table.mark table;
          Telemetry.bump c_index_patched 1;
          hit pe.pe_built
        | Some _ | None -> miss store)
      | None -> miss store
    end
    else begin
      match KTbl.find_opt c.scratch key with
      | Some built -> hit built
      | None -> miss (KTbl.replace c.scratch key)
    end

let cached_trie cache plan range =
  match
    cached cache 0 plan range ~proj:[||] ~rest:[||]
      ~build:(fun () -> B_trie (build_trie plan range))
      ~patch:(fun built changes ->
        match built with
        | B_trie trie -> B_trie (patch_trie plan trie changes)
        | B_index _ -> assert false)
  with
  | B_trie trie -> trie
  | B_index _ -> assert false

let cached_index cache plan range ~proj ~rest =
  (* A cached full-table index is sized for one key per row, so its build
     never rehashes; a transient one starts small. *)
  let size =
    if Option.is_some cache && is_full range then Some (Table.length plan.ap_table) else None
  in
  match
    cached cache 1 plan range ~proj ~rest
      ~build:(fun () -> B_index (build_index ?size plan range ~proj ~rest))
      ~patch:(fun built changes ->
        match built with
        | B_index idx ->
          patch_index plan idx changes ~proj ~rest;
          built
        | B_trie _ -> assert false)
  with
  | B_index idx -> idx
  | B_trie _ -> assert false

(* The lowering class whose search never reads the plan's variable order:
   a single atom, or two atoms, each binding at least one variable. The
   single-atom scan binds every variable from one row (an atom that binds
   none is ground, so a lookup); the two-atom driver is picked per search
   and its index is keyed by column position (see [compile_two_orient]).
   Their primitives all run once every variable is bound, so another order
   only permutes that checklist: the matches and their order stay the
   same. *)
let order_free (q : Compile.cquery) =
  let binds (a : Compile.atom) =
    Array.exists (function Compile.A_var _ -> true | Compile.A_const _ -> false) a.Compile.a_args
  in
  match q.Compile.atoms with
  | [| _ |] -> true
  | [| a; b |] -> binds a && binds b
  | _ -> false

(* A lookup's read: the row at [key], if any, counted as one scanned
   tuple, and kept when its stamp lies in the atom's window. *)
let lookup table key (range : stamp_range) scanned =
  match Table.get table key with
  | None -> None
  | Some (row : Table.row) ->
    incr scanned;
    if range.lo <= row.stamp && row.stamp < range.hi then Some row else None

(* Run a driver scan that counts its rows into [scanned], then record the
   count in [join.tuples_scanned] — also when the callback stops the scan
   by raising, as {!exists} does at its first match. One handler per
   search, nothing per row. *)
let counted_scan scanned scan =
  match scan () with
  | () -> Telemetry.bump c_scanned !scanned
  | exception e ->
    Telemetry.bump c_scanned !scanned;
    raise e

(* Count yields only when telemetry is on: the wrapper closure would
   otherwise cost an allocation per search even with everything off. *)
let count_yields callback =
  if Telemetry.is_enabled () then (fun env ->
    Telemetry.bump c_yielded 1;
    callback env)
  else callback

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* A plan lowered to a tree of specialized closures (see {!Plan_compile}).
   Lowering resolves everything that depends only on the plan — column
   readers, hoisted checks, binding loops, primitive impl pointers, the
   per-depth atom participation of the generic join — and leaves only
   table resolution, cache probes and per-search state to run time. Every
   search and [check] query goes through one of these. Each search
   instantiates its own mutable state, so one compiled plan serves every
   search of its rule. *)

type compiled_run =
  Database.t -> cache option -> stamp_range array -> (Value.t array -> unit) -> unit

type compiled = { cp_n_atoms : int; cp_run : compiled_run }

(* The whole primitive schedule as one checklist, for the kernels that
   bind every join variable before any primitive runs. *)
let flat_schedule (q : Compile.cquery) = List.concat (Array.to_list q.Compile.schedule)

(* How a driving atom's rows are read: a scan of its window, or, when
   its key is all constants, one lookup. [visit] sees each row read, after
   [scanned] counted it. *)
type drive =
  unit -> Table.t -> stamp_range -> int ref -> (Value.t array -> Table.row -> unit) -> unit

let compile_drive (atom : Compile.atom) (sh : Plan_compile.shape) : drive =
  if sh.Plan_compile.sh_lookup then fun () ->
    (* an all-constant key reads no environment *)
    let key = Plan_compile.compile_key atom () [||] in
    fun table range scanned visit ->
      Option.iter (visit key) (lookup table key range scanned)
  else fun () table range scanned visit ->
    Table.iter_delta table ~lo:range.lo ~hi:range.hi (fun key row ->
        incr scanned;
        visit key row)

(* Single-atom scan, or lookup when the key is all constants: filter,
   binder and primitive checklist all compiled; per-search state is just
   the environment and the prim runner's private argument buffers.
   Caches nothing. *)
let compile_single (q : Compile.cquery) (sh : Plan_compile.shape) : compiled_run =
  let f = sh.Plan_compile.sh_func in
  let drive = compile_drive q.Compile.atoms.(0) sh in
  let filter = Plan_compile.compile_filter f sh.Plan_compile.sh_checks in
  let bind =
    Plan_compile.compile_binder f ~vars:sh.Plan_compile.sh_vars
      ~sources:sh.Plan_compile.sh_sources
  in
  let prims = Plan_compile.compile_prims (flat_schedule q) in
  let n_vars = q.Compile.n_vars in
  fun db _cache ranges callback ->
    let table = resolve_table db f in
    let env = Array.make n_vars Value.VUnit in
    let run_prims = prims () in
    let scanned = ref 0 in
    counted_scan scanned (fun () ->
        drive () table ranges.(0) scanned (fun key row ->
            if filter key row then begin
              bind env key row;
              if run_prims env then callback env
            end))

(* One orientation (driver choice) of the two-atom path: read the driver
   atom (scan, or lookup when its key is all constants), then probe the
   other atom — by one lookup when the driver binds its whole key, else
   through a hash index keyed by the shared variables. The driver is
   picked per search ([two_driver]), so both orientations are compiled up
   front. *)
type probe =
  | P_index of {
      oshape : Plan_compile.shape;  (* the indexed atom, for its cache entry *)
      proj : int array;  (* other-row positions of shared vars, sorted *)
      rest_pos : int array;
      shared_vars : int array;  (* env slot feeding each probe-key cell *)
      rest_vars : int array;  (* env slot written from each index entry cell *)
    }
  | P_lookup of {
      key : unit -> Value.t array -> Value.t array;
      const_key : bool;  (* no key variable: one read serves every driver row *)
      check : Value.t array -> Value.t array -> Table.row -> bool;  (* env key row *)
      bind : Value.t array -> Value.t array -> Table.row -> unit;
    }

type two_orient = {
  to_drive : drive;
  to_filter_d : Plan_compile.filter;
  to_bind_d : Value.t array -> Value.t array -> Table.row -> unit;
  to_probe : probe;
}

(* Whether the other atom is a lookup when [driver] drives: the driver
   binds every variable of its key. *)
let probe_shape (q : Compile.cquery) (shapes : Plan_compile.shape array) ~driver =
  let dvars = shapes.(driver).Plan_compile.sh_vars in
  Plan_compile.shape_atom ~bound:(fun v -> Array.mem v dvars) q q.Compile.atoms.(1 - driver)

let compile_two_orient (q : Compile.cquery) (shapes : Plan_compile.shape array) ~driver :
    two_orient =
  let dsh = shapes.(driver) and osh = probe_shape q shapes ~driver in
  let of_ = osh.Plan_compile.sh_func in
  let in_driver = Array.make q.Compile.n_vars false in
  Array.iter (fun v -> in_driver.(v) <- true) dsh.Plan_compile.sh_vars;
  (* positions in the other atom's row for shared and private vars *)
  let shared = ref [] and rest = ref [] in
  Array.iteri
    (fun level v ->
      let src = osh.Plan_compile.sh_sources.(level) in
      if in_driver.(v) then shared := (v, src) :: !shared else rest := (v, src) :: !rest)
    osh.Plan_compile.sh_vars;
  (* canonicalize by column position: the index layout then depends only on
     which variables are shared, not on the plan's variable order, so one
     cached index serves every rule and ordering over the same atom *)
  let by_src (_, s1) (_, s2) = Int.compare s1 s2 in
  let shared = Array.of_list (List.sort by_src !shared)
  and rest = Array.of_list (List.sort by_src !rest) in
  let probe =
    if osh.Plan_compile.sh_lookup then begin
      (* The key carries the shared key columns; a shared output column
         is checked against its bound variable, a private one bound. *)
      let out = Schema.arity of_ in
      let filter = Plan_compile.compile_filter of_ osh.Plan_compile.sh_checks in
      let check =
        match List.find_opt (fun (_, src) -> src = out) (Array.to_list shared) with
        | None -> fun _ key row -> filter key row
        | Some (v, _) ->
          fun env key (row : Table.row) -> filter key row && Value.equal env.(v) row.value
      in
      P_lookup
        {
          key = Plan_compile.compile_key q.Compile.atoms.(1 - driver);
          const_key = shapes.(1 - driver).Plan_compile.sh_lookup;
          check;
          bind =
            Plan_compile.compile_binder of_ ~vars:(Array.map fst rest)
              ~sources:(Array.map snd rest);
        }
    end
    else
      P_index
        {
          oshape = osh;
          proj = Array.map snd shared;
          rest_pos = Array.map snd rest;
          shared_vars = Array.map fst shared;
          rest_vars = Array.map fst rest;
        }
  in
  {
    to_drive = compile_drive q.Compile.atoms.(driver) dsh;
    to_filter_d = Plan_compile.compile_filter dsh.Plan_compile.sh_func dsh.Plan_compile.sh_checks;
    to_bind_d =
      Plan_compile.compile_binder dsh.Plan_compile.sh_func ~vars:dsh.Plan_compile.sh_vars
        ~sources:dsh.Plan_compile.sh_sources;
    to_probe = probe;
  }

(* The driver of a two-atom search: the delta side (the later window
   start), else the smaller table. *)
let two_driver ranges t0 t1 =
  if ranges.(0).lo > ranges.(1).lo then 0
  else if ranges.(1).lo > ranges.(0).lo then 1
  else if Table.length t0 <= Table.length t1 then 0
  else 1

let compile_two (q : Compile.cquery) (shapes : Plan_compile.shape array) : compiled_run =
  let orients = Array.init 2 (fun driver -> compile_two_orient q shapes ~driver) in
  let prims = Plan_compile.compile_prims (flat_schedule q) in
  let n_vars = q.Compile.n_vars in
  fun db cache ranges callback ->
    let t0 = resolve_table db shapes.(0).Plan_compile.sh_func
    and t1 = resolve_table db shapes.(1).Plan_compile.sh_func in
    let driver = two_driver ranges t0 t1 in
    let o = orients.(driver) in
    let dtable, otable = if driver = 0 then (t0, t1) else (t1, t0) in
    let orange = ranges.(1 - driver) in
    let env = Array.make n_vars Value.VUnit in
    let run_prims = prims () in
    let scanned = ref 0 in
    let emit () = if run_prims env then callback env in
    (* The probe of the other atom, run once a driver row bound [env]; or
       [None] when the other atom's constant key holds no row in its
       window, so that no driver row can match. *)
    let probe : (unit -> unit) option =
      match o.to_probe with
      | P_lookup p when p.const_key -> (
        let key = p.key () env in
        match lookup otable key orange scanned with
        | None -> None
        | Some row ->
          Some
            (fun () ->
              if p.check env key row then begin
                p.bind env key row;
                emit ()
              end))
      | P_lookup p ->
        let key = p.key () in
        Some
          (fun () ->
            let key = key env in
            match lookup otable key orange scanned with
            | Some row when p.check env key row ->
              p.bind env key row;
              emit ()
            | Some _ | None -> ())
      | P_index p ->
        let index =
          cached_index cache (plan_over otable p.oshape) orange ~proj:p.proj ~rest:p.rest_pos
        in
        let probe_key = Array.make (Array.length p.proj) Value.VUnit in
        let nshared = Array.length p.shared_vars and nrest = Array.length p.rest_vars in
        Some
          (fun () ->
            for i = 0 to nshared - 1 do
              probe_key.(i) <- env.(p.shared_vars.(i))
            done;
            match Value.Key_tbl.find_opt index probe_key with
            | None -> ()
            | Some entries ->
              List.iter
                (fun (rest_vals : Value.t array) ->
                  for i = 0 to nrest - 1 do
                    env.(p.rest_vars.(i)) <- rest_vals.(i)
                  done;
                  emit ())
                entries)
    in
    counted_scan scanned (fun () ->
        Option.iter
          (fun probe ->
            o.to_drive () dtable ranges.(driver) scanned (fun key row ->
                if o.to_filter_d key row then begin
                  o.to_bind_d env key row;
                  probe ()
                end))
          probe)

(* Generic trie join as a chain of per-depth closures built once: depth d's
   step captures its variable, participating-atom array and the next
   step. Per-search state (cursors, environment, the per-depth primitive
   runners, the emit target) travels in a state record, so no two
   searches of one compiled plan share state. The environment is the same
   reused array the single- and two-atom kernels bind into: the plan
   fixed which variables each depth has bound, so a slot is never read
   before it is written and a candidate's binding needs no undo. With no
   atoms the chain is step 0 alone: it runs the primitives and emits. *)
type gstate = {
  gs_cursors : trie array;
  gs_env : Value.t array;
  gs_prims : (Value.t array -> bool) array;  (* this search's runner per depth *)
  gs_emit : Value.t array -> unit;
}

let compile_generic (q : Compile.cquery) (shapes : Plan_compile.shape array) : compiled_run =
  let n_atoms = Array.length q.Compile.atoms in
  let n_steps = Array.length q.Compile.order in
  let parts_for_depth =
    Array.init n_steps (fun d ->
        let v = q.Compile.order.(d) in
        let acc = ref [] in
        for ai = n_atoms - 1 downto 0 do
          if Array.exists (Int.equal v) shapes.(ai).Plan_compile.sh_vars then acc := ai :: !acc
        done;
        Array.of_list !acc)
  in
  let depth_prims = Array.map Plan_compile.compile_prims q.Compile.schedule in
  (* Build the step chain bottom-up so step d can capture step (d+1). *)
  let steps = Array.make (n_steps + 1) (fun (_ : gstate) -> ()) in
  for d = n_steps downto 0 do
    let body =
      if d = n_steps then fun st -> st.gs_emit st.gs_env
      else begin
        let v = q.Compile.order.(d) in
        let parts = parts_for_depth.(d) in
        let np = Array.length parts in
        if np = 0 then
          internal "join variable %s covered by no atom" q.Compile.var_names.(v);
        let in_func = q.Compile.atoms.(parts.(0)).Compile.a_func.Schema.name in
        let next = steps.(d + 1) in
        fun st ->
          let cursors = st.gs_cursors in
          let node_table ai =
            match cursors.(ai) with
            | Node t -> t
            | Leaf -> internal ~in_func "trie cursor exhausted"
          in
          (* iterate the first strictly-smallest candidate set, probe the
             others *)
          let smallest = ref parts.(0) in
          for k = 1 to np - 1 do
            if VTbl.length (node_table parts.(k)) < VTbl.length (node_table !smallest) then
              smallest := parts.(k)
          done;
          let sm = !smallest in
          let saved = Array.map (fun ai -> cursors.(ai)) parts in
          VTbl.iter
            (fun value _child ->
              let ok = ref true and k = ref 0 in
              while !ok && !k < np do
                let ai = parts.(!k) in
                if ai <> sm && not (VTbl.mem (node_table ai) value) then ok := false;
                incr k
              done;
              if !ok then begin
                for k = 0 to np - 1 do
                  let ai = parts.(k) in
                  match VTbl.find_opt (node_table ai) value with
                  | Some child -> cursors.(ai) <- child
                  | None -> assert false
                done;
                st.gs_env.(v) <- value;
                next st;
                (* restore cursors before the next candidate *)
                for k = 0 to np - 1 do
                  cursors.(parts.(k)) <- saved.(k)
                done
              end)
            (node_table sm)
      end
    in
    steps.(d) <-
      (match q.Compile.schedule.(d) with
      | [] -> body
      | _ :: _ -> fun st -> if st.gs_prims.(d) st.gs_env then body st)
  done;
  let step0 = steps.(0) in
  fun db cache ranges callback ->
    let tries =
      Array.mapi (fun i sh -> cached_trie cache (plan_of_shape db sh) ranges.(i)) shapes
    in
    let unsat = Array.exists (function Node t -> VTbl.length t = 0 | Leaf -> false) tries in
    if not unsat then
      step0
        {
          gs_cursors = tries;
          gs_env = Array.make q.Compile.n_vars Value.VUnit;
          gs_prims = Array.map (fun make -> make ()) depth_prims;
          gs_emit = callback;
        }

(* The lowering a plan takes, decided in one place for [compile_plan] and
   [describe_lowering]. *)
type lowering = Single | Two | Generic

let classify (q : Compile.cquery) =
  if not (order_free q) then Generic
  else if Array.length q.Compile.atoms = 1 then Single
  else Two

(* Lookups are named: a single atom's, and per atom of a two-atom plan
   whether it is one wherever it sits (an all-constant key) or only when
   probed (the other atom binds its key). *)
let describe (q : Compile.cquery) (shapes : Plan_compile.shape array) lowering =
  let arity i = Array.length shapes.(i).Plan_compile.sh_sources in
  let binder i = if arity i <= 4 then "specialized" else "generic binder" in
  match lowering with
  | Single ->
    Printf.sprintf "compiled single-atom (arity %d, %s%s)" (arity 0) (binder 0)
      (if shapes.(0).Plan_compile.sh_lookup then ", key lookup" else "")
  | Two ->
    let lookups =
      List.filter_map
        (fun i ->
          if shapes.(i).Plan_compile.sh_lookup then Some (Printf.sprintf "atom %d" i)
          else if (probe_shape q shapes ~driver:(1 - i)).Plan_compile.sh_lookup then
            Some (Printf.sprintf "atom %d when probed" i)
          else None)
        [ 0; 1 ]
    in
    Printf.sprintf "compiled two-atom (arities %d+%d, %s/%s%s)" (arity 0) (arity 1) (binder 0)
      (binder 1)
      (if lookups = [] then "" else ", key lookup: " ^ String.concat ", " lookups)
  | Generic -> Printf.sprintf "compiled generic (%d atoms)" (Array.length shapes)

let shapes_of (q : Compile.cquery) = Array.map (Plan_compile.shape_atom q) q.Compile.atoms

let compile_plan (q : Compile.cquery) : compiled =
  let shapes = shapes_of q in
  let run =
    match classify q with
    | Single -> compile_single q shapes.(0)
    | Two -> compile_two q shapes
    | Generic -> compile_generic q shapes
  in
  { cp_n_atoms = Array.length shapes; cp_run = run }

let describe_lowering (q : Compile.cquery) : string =
  describe q (shapes_of q) (classify q)

let search_compiled db ?cache (cp : compiled) ~(ranges : stamp_range array) callback =
  if Array.length ranges <> cp.cp_n_atoms then
    invalid_arg "Join.search_compiled: ranges arity mismatch";
  cp.cp_run db cache ranges (count_yields callback)

exception Found

let exists db (q : Compile.cquery) =
  let ranges = Array.make (Array.length q.Compile.atoms) all_rows in
  try
    search_compiled db (compile_plan q) ~ranges (fun _ -> raise Found);
    false
  with Found -> true

exception Internal_error of { in_func : Symbol.t option; detail : string }

let internal ?in_func fmt =
  Format.kasprintf (fun detail -> raise (Internal_error { in_func; detail })) fmt

let c_scanned = Telemetry.counter "join.tuples_scanned"
let c_trie_builds = Telemetry.counter "join.trie_builds"

(* Value-based histogram (depths, not durations): buckets are
   byte-identical at any --jobs count because the set of tries built is
   scheduling-independent. *)
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
   analysis itself lives in {!Plan_compile.shape_atom}, shared with the
   plan compiler so the two evaluators (and the cache keys derived from
   checks + sources) can never disagree on an atom's read set. *)
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

let plan_of_shape db (sh : Plan_compile.shape) : atom_plan =
  {
    ap_table = resolve_table db sh.Plan_compile.sh_func;
    ap_checks = sh.Plan_compile.sh_checks;
    ap_sources = sh.Plan_compile.sh_sources;
    ap_vars = sh.Plan_compile.sh_vars;
  }

let plan_atom db (q : Compile.cquery) (atom : Compile.atom) : atom_plan =
  plan_of_shape db (Plan_compile.shape_atom q atom)

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

let build_trie ?(scan = Table.iter_range) (plan : atom_plan) (range : stamp_range) : trie =
  let depth = Array.length plan.ap_sources in
  Telemetry.bump c_trie_builds 1;
  Telemetry.observe "join.trie_depth" (float_of_int depth);
  Telemetry.hist_record h_trie_depth (float_of_int depth);
  let scanned = ref 0 in
  let result =
  if depth = 0 then begin
    (* Fully ground atom: Leaf iff some row passes the checks. *)
    let found = ref false in
    (try
       scan plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
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
    scan plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
        incr scanned;
        if row_passes plan key row.value then trie_add_row plan root ~depth key row.value);
    Node root
  end
  in
  Telemetry.bump c_scanned !scanned;
  result

exception Found

(* The memo holds both kinds of built structure. Full-table entries
   (lo = 0, hi = max_int) live in the persistent tier and follow their
   table through its change feed. Delta and windowed entries go to the
   scratch tier, cleared each iteration. *)
type built = B_trie of trie | B_index of Value.t array list Value.Key_tbl.t

(* Structured cache key. The old scheme concatenated ints and printed
   values with ad-hoc delimiters into one string, which both allowed
   collisions (values may contain any delimiter) and could not tell two
   incarnations of a table apart (push/pop restores an older table whose
   version counter may coincide with the cached one). Comparing fields —
   with [Value.equal] for check constants and the table's globally unique
   [uid] for identity — removes both failure modes. *)
type cache_key = {
  k_kind : int;  (* 0 = trie, 1 = index *)
  k_table : int;  (* Table.uid of the incarnation the entry was built over *)
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

(* [frozen] puts the cache in read-only mode for the parallel search
   phase: lookups still serve valid hits (concurrent hashtable reads with
   no writer are safe), but misses and stale entries build privately and
   are NOT stored or patched — storing would race other domains, and
   [patch_trie]/[patch_index] mutate the shared structure in place. The
   engine pre-builds the full-range entries serially before fanning out,
   so frozen misses are normally just the small per-variant delta
   structures. *)
type cache = { persistent : pentry KTbl.t; scratch : built KTbl.t; mutable frozen : bool }

let new_cache () : cache =
  { persistent = KTbl.create 64; scratch = KTbl.create 64; frozen = false }

let set_frozen cache frozen = cache.frozen <- frozen
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
       would needlessly duplicate identical indexes across replans *)
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

let build_index ?(scan = Table.iter_range) ?(size = 64) (plan : atom_plan) (range : stamp_range)
    ~(proj : int array) ~(rest : int array) =
  Telemetry.bump c_index_builds 1;
  let scanned = ref 0 in
  let index : Value.t array list Value.Key_tbl.t = Value.Key_tbl.create size in
  scan plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
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

(* One lookup through the cache. Full-range structures live in the
   persistent tier: a hit when the table is unchanged since the entry's
   mark, patched from the change feed when it changed, rebuilt when an
   inverse cut the feed or the feed touched at least as many keys as the
   table has rows (patching would cost more than building). Windowed
   structures live in the scratch tier. A frozen cache serves only hits
   and builds everything else privately. *)
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
    if c.frozen then begin
      let found =
        if is_full range then
          match KTbl.find_opt c.persistent key with
          | Some pe when Table.unchanged_since table pe.pe_mark -> Some pe.pe_built
          | Some _ | None -> None
        else KTbl.find_opt c.scratch key
      in
      match found with Some built -> hit built | None -> miss ignore
    end
    else if is_full range then begin
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

let cached_trie ?scan cache plan range =
  match
    cached cache 0 plan range ~proj:[||] ~rest:[||]
      ~build:(fun () -> B_trie (build_trie ?scan plan range))
      ~patch:(fun built changes ->
        match built with
        | B_trie trie -> B_trie (patch_trie plan trie changes)
        | B_index _ -> assert false)
  with
  | B_trie trie -> trie
  | B_index _ -> assert false

let cached_index ?scan cache plan range ~proj ~rest =
  (* A cached full-table index is sized for one key per row, so its build
     never rehashes; a transient one starts small. *)
  let size =
    if Option.is_some cache && is_full range then Some (Table.length plan.ap_table) else None
  in
  match
    cached cache 1 plan range ~proj ~rest
      ~build:(fun () -> B_index (build_index ?scan ?size plan range ~proj ~rest))
      ~patch:(fun built changes ->
        match built with
        | B_index idx ->
          patch_index plan idx changes ~proj ~rest;
          built
        | B_trie _ -> assert false)
  with
  | B_index idx -> idx
  | B_trie _ -> assert false

(* Prims as a flat, statically classified checklist: every join variable is
   bound before they run, so outputs either bind (computed vars) or check.
   Shared with the plan compiler so both evaluators classify identically. *)
let static_prim_plan = Plan_compile.classify_prims

let run_static_prims (env : Value.t array) prim_plan =
  List.for_all
    (fun ((p : Compile.prim_app), binds) ->
      let args =
        Array.map (function Compile.A_const v -> v | Compile.A_var v -> env.(v)) p.p_args
      in
      match p.p_prim.Primitives.impl args with
      | None -> false
      | Some result ->
        if binds then begin
          (match p.p_out with
           | Compile.A_var v -> env.(v) <- result
           | Compile.A_const _ -> assert false);
          true
        end
        else begin
          match p.p_out with
          | Compile.A_const c -> Value.equal c result
          | Compile.A_var v -> Value.equal env.(v) result
        end)
    prim_plan

(* Fast path: a single-atom query needs no trie at all — scan the table
   (or just the log tail for delta ranges), filter, bind, run the primitive
   schedule. This covers the bulk of rewrite rules (single-pattern
   left-hand sides). *)
let search_single_atom (q : Compile.cquery) (plan : atom_plan) (range : stamp_range) callback =
  let env : Value.t array = Array.make q.Compile.n_vars Value.VUnit in
  (* Every join variable is bound from the row before the primitives run,
     so whether a primitive output checks or binds is static. *)
  let prim_plan = static_prim_plan q [ plan.ap_vars ] in
  let scanned = ref 0 in
  Table.iter_range plan.ap_table ~lo:range.lo ~hi:range.hi (fun key (row : Table.row) ->
      incr scanned;
      if row_passes plan key row.value then begin
        Array.iteri
          (fun level src -> env.(plan.ap_vars.(level)) <- cell key row.value src)
          plan.ap_sources;
        if run_static_prims env prim_plan then callback env
      end);
  Telemetry.bump c_scanned !scanned

(* Driver choice and index layout for the two-atom fast path, factored
   out so [prebuild] computes exactly the layout [search_two_atoms] will
   ask for. Depends only on the plans, ranges and table lengths — all
   stable while the database is frozen. *)
let two_atom_layout (q : Compile.cquery) (plans : atom_plan array) (ranges : stamp_range array) =
  let driver =
    if ranges.(0).lo > ranges.(1).lo then 0
    else if ranges.(1).lo > ranges.(0).lo then 1
    else if Table.length plans.(0).ap_table <= Table.length plans.(1).ap_table then 0
    else 1
  in
  let other = 1 - driver in
  let dplan = plans.(driver) and oplan = plans.(other) in
  let in_driver = Array.make q.Compile.n_vars false in
  Array.iter (fun v -> in_driver.(v) <- true) dplan.ap_vars;
  (* positions in the *other* atom's row for shared and private vars *)
  let shared = ref [] and rest = ref [] in
  Array.iteri
    (fun level v ->
      let src = oplan.ap_sources.(level) in
      if in_driver.(v) then shared := (v, src) :: !shared else rest := (v, src) :: !rest)
    oplan.ap_vars;
  (* canonicalize by column position: the index layout then depends only on
     which variables are shared, not on the current plan's variable order,
     so one cached index survives replans and serves every ordering *)
  let by_src (_, s1) (_, s2) = Int.compare s1 s2 in
  let shared = Array.of_list (List.sort by_src !shared)
  and rest = Array.of_list (List.sort by_src !rest) in
  (driver, other, shared, rest)

(* Fast path for two-atom queries: scan a driver atom (prefer the delta
   side), probe a hash index on the other atom keyed by the shared
   variables. Cheaper constants than the generic trie join, and the index
   is shared across rules/variants via the cache. *)
let search_two_atoms ?cache (q : Compile.cquery) (plans : atom_plan array)
    (ranges : stamp_range array) callback =
  let driver, other, shared, rest = two_atom_layout q plans ranges in
  let dplan = plans.(driver) and oplan = plans.(other) in
  let proj = Array.map snd shared and rest_pos = Array.map snd rest in
  let index = cached_index cache oplan ranges.(other) ~proj ~rest:rest_pos in
  let prim_plan = static_prim_plan q [ dplan.ap_vars; oplan.ap_vars ] in
  let env = Array.make q.Compile.n_vars Value.VUnit in
  let probe_key = Array.make (Array.length shared) Value.VUnit in
  let scanned = ref 0 in
  Table.iter_range dplan.ap_table ~lo:ranges.(driver).lo ~hi:ranges.(driver).hi
    (fun key (row : Table.row) ->
      incr scanned;
      if row_passes dplan key row.value then begin
        Array.iteri
          (fun level src -> env.(dplan.ap_vars.(level)) <- cell key row.value src)
          dplan.ap_sources;
        Array.iteri (fun i (v, _) -> probe_key.(i) <- env.(v)) shared;
        match Value.Key_tbl.find_opt index probe_key with
        | None -> ()
        | Some entries ->
          List.iter
            (fun (rest_vals : Value.t array) ->
              Array.iteri (fun i (v, _) -> env.(v) <- rest_vals.(i)) rest;
              if run_static_prims env prim_plan then callback env)
            entries
      end);
  Telemetry.bump c_scanned !scanned

(* The lowering class whose search never reads the plan's variable order:
   a single atom, or two atoms, each binding at least one variable, under
   [fast_paths]. The single-atom scan binds every variable from one row;
   the two-atom driver is picked per search and its index is keyed by
   column position (see [two_atom_layout]). Their primitives all run once
   every variable is bound, so another order only permutes that
   checklist: the matches and their order stay the same. Every dispatch
   below tests this one predicate. *)
let order_free ?(fast_paths = true) (q : Compile.cquery) =
  let binds (a : Compile.atom) =
    Array.exists (function Compile.A_var _ -> true | Compile.A_const _ -> false) a.Compile.a_args
  in
  fast_paths
  &&
  match q.Compile.atoms with
  | [| a |] -> binds a
  | [| a; b |] -> binds a && binds b
  | _ -> false

(* Count yields only when telemetry is on: the wrapper closure would
   otherwise cost an allocation per search even with everything off. *)
let count_yields callback =
  if Telemetry.is_enabled () then (fun env ->
    Telemetry.bump c_yielded 1;
    callback env)
  else callback

(* Dispatch with the yield counter already applied: shared between the
   interpreter entry point [search] and the compiled-plan interpreter
   fallback (which must not re-wrap the callback). *)
let search_dispatch db ?cache ~fast_paths (q : Compile.cquery) ~(ranges : stamp_range array)
    callback =
  let n_atoms = Array.length q.atoms in
  let plans = Array.map (plan_atom db q) q.atoms in
  if order_free ~fast_paths q then begin
    if n_atoms = 1 then search_single_atom q plans.(0) ranges.(0) callback
    else search_two_atoms ?cache q plans ranges callback
  end
  else begin
  let tries = Array.init n_atoms (fun i -> cached_trie cache plans.(i) ranges.(i)) in
  let unsat =
    Array.exists (function Node t -> VTbl.length t = 0 | Leaf -> false) tries
  in
  if not unsat then begin
    let n_steps = Array.length q.order in
    (* Atoms participating at each depth (their cursor is intersected). *)
    let parts_for_depth =
      Array.init n_steps (fun d ->
          let v = q.order.(d) in
          let acc = ref [] in
          for ai = n_atoms - 1 downto 0 do
            if Array.exists (Int.equal v) plans.(ai).ap_vars then acc := ai :: !acc
          done;
          !acc)
    in
    let cursors = Array.copy tries in
    let env : Value.t option array = Array.make q.n_vars None in
    let eval_arg = function
      | Compile.A_const v -> v
      | Compile.A_var v -> (
        match env.(v) with
        | Some x -> x
        | None -> internal "unbound variable in primitive argument")
    in
    (* Run the primitives scheduled at a depth. Returns the computed vars to
       undo, or None on guard failure (partial bindings already undone). *)
    let run_prims prims =
      let rec go acc = function
        | [] -> Some acc
        | (p : Compile.prim_app) :: rest -> (
          let args = Array.map eval_arg p.p_args in
          match p.p_prim.Primitives.impl args with
          | None ->
            List.iter (fun v -> env.(v) <- None) acc;
            None
          | Some result -> (
            match p.p_out with
            | Compile.A_const c ->
              if Value.equal c result then go acc rest
              else begin
                List.iter (fun v -> env.(v) <- None) acc;
                None
              end
            | Compile.A_var v -> (
              match env.(v) with
              | Some existing ->
                if Value.equal existing result then go acc rest
                else begin
                  List.iter (fun u -> env.(u) <- None) acc;
                  None
                end
              | None ->
                env.(v) <- Some result;
                go (v :: acc) rest)))
      in
      go [] prims
    in
    let emit () =
      let binding =
        Array.mapi
          (fun i o ->
            match o with
            | Some v -> v
            | None -> internal "unbound variable %s at emit" q.var_names.(i))
          env
      in
      callback binding
    in
    let rec solve d =
      match run_prims q.schedule.(d) with
      | None -> ()
      | Some undo ->
        (if d = n_steps then emit ()
         else begin
           let v = q.order.(d) in
           let parts = parts_for_depth.(d) in
           match parts with
           | [] -> internal "join variable %s covered by no atom" q.var_names.(v)
           | _ ->
             (* Iterate the smallest candidate set, probe the others. *)
             let node_table ai =
               match cursors.(ai) with
               | Node t -> t
               | Leaf ->
                 internal ~in_func:q.atoms.(ai).a_func.Schema.name "trie cursor exhausted"
             in
             let smallest =
               List.fold_left
                 (fun best ai ->
                   match best with
                   | None -> Some ai
                   | Some b ->
                     if VTbl.length (node_table ai) < VTbl.length (node_table b) then Some ai
                     else best)
                 None parts
             in
             let smallest = Option.get smallest in
             let saved = List.map (fun ai -> (ai, cursors.(ai))) parts in
             VTbl.iter
               (fun value _child ->
                 let ok =
                   List.for_all
                     (fun ai ->
                       ai = smallest
                       ||
                       match VTbl.find_opt (node_table ai) value with
                       | Some _ -> true
                       | None -> false)
                     parts
                 in
                 if ok then begin
                   List.iter
                     (fun ai ->
                       match VTbl.find_opt (node_table ai) value with
                       | Some child -> cursors.(ai) <- child
                       | None -> assert false)
                     parts;
                   (* restore cursors before the next candidate *)
                   env.(v) <- Some value;
                   solve (d + 1);
                   env.(v) <- None;
                   List.iter (fun (ai, c) -> cursors.(ai) <- c) saved
                 end)
               (node_table smallest)
         end);
        List.iter (fun u -> env.(u) <- None) undo
    in
    solve 0
  end
  end

let search db ?cache ?(fast_paths = true) (q : Compile.cquery) ~(ranges : stamp_range array)
    callback =
  if Array.length ranges <> Array.length q.atoms then
    invalid_arg "Join.search: ranges arity mismatch";
  search_dispatch db ?cache ~fast_paths q ~ranges (count_yields callback)

(* Serially warm the cache entries a subsequent [search] with the same
   query/ranges would want, so that a frozen (parallel) search finds them
   as read-only hits. Only full-range entries are warmed: they go to the
   persistent tier and are the expensive ones; windowed/delta structures
   are cheap and built privately by each task. Mirrors the dispatch in
   [search] exactly. *)
let prebuild db ?cache ?(fast_paths = true) (q : Compile.cquery) ~(ranges : stamp_range array) =
  match cache with
  | None -> ()
  | Some c when c.frozen -> ()
  | Some _ ->
    let n_atoms = Array.length q.atoms in
    if Array.length ranges <> n_atoms then invalid_arg "Join.prebuild: ranges arity mismatch";
    let plans = Array.map (plan_atom db q) q.atoms in
    if order_free ~fast_paths q then begin
      (* a single-atom scan caches nothing *)
      if n_atoms = 2 then begin
        let _driver, other, shared, rest = two_atom_layout q plans ranges in
        if is_full ranges.(other) then
          ignore
            (cached_index cache plans.(other) ranges.(other) ~proj:(Array.map snd shared)
               ~rest:(Array.map snd rest))
      end
    end
    else
      Array.iteri
        (fun i plan -> if is_full ranges.(i) then ignore (cached_trie cache plan ranges.(i)))
        plans

let exists db (q : Compile.cquery) =
  let ranges = Array.make (Array.length q.atoms) all_rows in
  try
    search db q ~ranges (fun _ -> raise Found);
    false
  with Found -> true

(* ------------------------------------------------------------------ *)
(* Compiled plans                                                      *)
(* ------------------------------------------------------------------ *)

(* A plan lowered to a tree of specialized closures (see {!Plan_compile}).
   Compilation resolves everything that depends only on the plan — column
   readers, hoisted checks, binding loops, primitive impl pointers, the
   per-depth atom participation of the generic join — and leaves only
   table resolution, cache probes and per-search state to run time. The
   lowering mirrors [search_dispatch]'s fast-path conditions exactly, and
   every compiled evaluator requests the same cache entries, bumps the
   same counters and emits matches in the same order as the interpreter,
   so output stays byte-identical between the two modes (and at any
   --jobs count: compilation happens in the engine's serial pre-phase). *)

let c_compiled_plans = Telemetry.counter "join.compiled_plans"
let c_interp_fallbacks = Telemetry.counter "join.interp_fallbacks"

type compiled_run =
  Database.t -> cache option -> stamp_range array -> (Value.t array -> unit) -> unit

type compiled = {
  cp_n_atoms : int;
  cp_descr : string;
  cp_compiled : bool;  (* false: interpreter fallback *)
  cp_run : compiled_run;
}

(* Single-atom scan: filter, binder and primitive checklist all compiled;
   per-search state is just the environment and the prim runner's private
   argument buffers. *)
let compile_single (q : Compile.cquery) (sh : Plan_compile.shape) : compiled_run =
  let f = sh.Plan_compile.sh_func in
  let filter = Plan_compile.compile_filter f sh.Plan_compile.sh_checks in
  let binder =
    Plan_compile.compile_binder f ~vars:sh.Plan_compile.sh_vars
      ~sources:sh.Plan_compile.sh_sources
  in
  let bind = binder.Plan_compile.bind in
  let prims =
    Plan_compile.compile_prims (Plan_compile.classify_prims q [ sh.Plan_compile.sh_vars ])
  in
  let n_vars = q.Compile.n_vars in
  fun db _cache ranges callback ->
    let table = resolve_table db f in
    let env = Array.make n_vars Value.VUnit in
    let run_prims = prims () in
    let scanned = ref 0 in
    Table.iter_delta table ~lo:ranges.(0).lo ~hi:ranges.(0).hi (fun key row ->
        incr scanned;
        if filter key row then begin
          bind env key row;
          if run_prims env then callback env
        end);
    Telemetry.bump c_scanned !scanned

(* One orientation (driver choice) of the two-atom fast path, fully
   compiled. The driver itself is picked per search — it depends on the
   delta windows and current table lengths — by the exact rule of
   [two_atom_layout], so both orientations are compiled up front. *)
type two_orient = {
  to_dfunc : Schema.func;
  to_ofunc : Schema.func;
  to_oshape : Plan_compile.shape;  (* rebuilt into an atom_plan for the cache *)
  to_filter_d : Plan_compile.filter;
  to_bind_d : Value.t array -> Value.t array -> Table.row -> unit;
  to_proj : int array;  (* other-row positions of shared vars, sorted *)
  to_rest_pos : int array;
  to_shared_vars : int array;  (* env slot feeding each probe-key cell *)
  to_rest_vars : int array;  (* env slot written from each index entry cell *)
  to_prims : unit -> Value.t array -> bool;
}

let compile_two_orient (q : Compile.cquery) (shapes : Plan_compile.shape array) ~driver :
    two_orient =
  let other = 1 - driver in
  let dsh = shapes.(driver) and osh = shapes.(other) in
  let in_driver = Array.make q.Compile.n_vars false in
  Array.iter (fun v -> in_driver.(v) <- true) dsh.Plan_compile.sh_vars;
  let shared = ref [] and rest = ref [] in
  Array.iteri
    (fun level v ->
      let src = osh.Plan_compile.sh_sources.(level) in
      if in_driver.(v) then shared := (v, src) :: !shared else rest := (v, src) :: !rest)
    osh.Plan_compile.sh_vars;
  let by_src (_, s1) (_, s2) = Int.compare s1 s2 in
  let shared = Array.of_list (List.sort by_src !shared)
  and rest = Array.of_list (List.sort by_src !rest) in
  let binder =
    Plan_compile.compile_binder dsh.Plan_compile.sh_func ~vars:dsh.Plan_compile.sh_vars
      ~sources:dsh.Plan_compile.sh_sources
  in
  {
    to_dfunc = dsh.Plan_compile.sh_func;
    to_ofunc = osh.Plan_compile.sh_func;
    to_oshape = osh;
    to_filter_d = Plan_compile.compile_filter dsh.Plan_compile.sh_func dsh.Plan_compile.sh_checks;
    to_bind_d = binder.Plan_compile.bind;
    to_proj = Array.map snd shared;
    to_rest_pos = Array.map snd rest;
    to_shared_vars = Array.map fst shared;
    to_rest_vars = Array.map fst rest;
    to_prims =
      Plan_compile.compile_prims
        (Plan_compile.classify_prims q
           [ dsh.Plan_compile.sh_vars; osh.Plan_compile.sh_vars ]);
  }

let compile_two (q : Compile.cquery) (shapes : Plan_compile.shape array) : compiled_run =
  let orients = [| compile_two_orient q shapes ~driver:0; compile_two_orient q shapes ~driver:1 |] in
  let n_vars = q.Compile.n_vars in
  fun db cache ranges callback ->
    let t0 = resolve_table db shapes.(0).Plan_compile.sh_func
    and t1 = resolve_table db shapes.(1).Plan_compile.sh_func in
    (* the driver rule of [two_atom_layout], verbatim *)
    let driver =
      if ranges.(0).lo > ranges.(1).lo then 0
      else if ranges.(1).lo > ranges.(0).lo then 1
      else if Table.length t0 <= Table.length t1 then 0
      else 1
    in
    let o = orients.(driver) in
    let dtable = if driver = 0 then t0 else t1 and otable = if driver = 0 then t1 else t0 in
    let oplan =
      {
        ap_table = otable;
        ap_checks = o.to_oshape.Plan_compile.sh_checks;
        ap_sources = o.to_oshape.Plan_compile.sh_sources;
        ap_vars = o.to_oshape.Plan_compile.sh_vars;
      }
    in
    let index =
      cached_index ~scan:Table.iter_delta cache oplan ranges.(1 - driver) ~proj:o.to_proj
        ~rest:o.to_rest_pos
    in
    let env = Array.make n_vars Value.VUnit in
    let probe_key = Array.make (Array.length o.to_proj) Value.VUnit in
    let run_prims = o.to_prims () in
    let nshared = Array.length o.to_shared_vars and nrest = Array.length o.to_rest_vars in
    let scanned = ref 0 in
    Table.iter_delta dtable ~lo:ranges.(driver).lo ~hi:ranges.(driver).hi (fun key row ->
        incr scanned;
        if o.to_filter_d key row then begin
          o.to_bind_d env key row;
          for i = 0 to nshared - 1 do
            probe_key.(i) <- env.(o.to_shared_vars.(i))
          done;
          match Value.Key_tbl.find_opt index probe_key with
          | None -> ()
          | Some entries ->
            List.iter
              (fun (rest_vals : Value.t array) ->
                for i = 0 to nrest - 1 do
                  env.(o.to_rest_vars.(i)) <- rest_vals.(i)
                done;
                if run_prims env then callback env)
              entries
        end);
    Telemetry.bump c_scanned !scanned

(* Generic trie join as a chain of per-depth closures built once: depth d's
   step captures its variable, participating-atom array, compiled primitive
   runner and the next step. Per-search state (cursors, environment, the
   emit target) travels in a state record, so one compiled plan is safe to
   search concurrently. Candidate iteration, smallest-cursor choice and
   cursor save/restore replicate the interpreter exactly — including
   hashtable iteration order, since both modes draw tries from the same
   cache (or build them by the same insertion sequence). *)
type gstate = {
  gs_cursors : trie array;
  gs_env : Value.t option array;
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
  let depth_prims = Array.map Plan_compile.compile_depth_prims q.Compile.schedule in
  let emit st =
    let binding =
      Array.mapi
        (fun i o ->
          match o with
          | Some v -> v
          | None -> internal "unbound variable %s at emit" q.Compile.var_names.(i))
        st.gs_env
    in
    st.gs_emit binding
  in
  (* Build the step chain bottom-up so step d can capture step (d+1). *)
  let steps = Array.make (n_steps + 1) (fun (_ : gstate) -> ()) in
  for d = n_steps downto 0 do
    let prims = depth_prims.(d) in
    let body =
      if d = n_steps then emit
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
          (* first strictly-smallest candidate set, as the interpreter *)
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
                st.gs_env.(v) <- Some value;
                next st;
                st.gs_env.(v) <- None;
                for k = 0 to np - 1 do
                  cursors.(parts.(k)) <- saved.(k)
                done
              end)
            (node_table sm)
      end
    in
    steps.(d) <-
      (fun st ->
        match prims st.gs_env with
        | None -> ()
        | Some undo ->
          body st;
          List.iter (fun u -> st.gs_env.(u) <- None) undo)
  done;
  let step0 = steps.(0) in
  fun db cache ranges callback ->
    let plans = Array.map (plan_of_shape db) shapes in
    let tries =
      Array.init n_atoms (fun i -> cached_trie ~scan:Table.iter_delta cache plans.(i) ranges.(i))
    in
    let unsat = Array.exists (function Node t -> VTbl.length t = 0 | Leaf -> false) tries in
    if not unsat then
      step0
        {
          gs_cursors = Array.copy tries;
          gs_env = Array.make q.Compile.n_vars None;
          gs_emit = callback;
        }

let compile_plan ?(fast_paths = true) (q : Compile.cquery) : compiled =
  let n_atoms = Array.length q.Compile.atoms in
  let shapes = Array.map (Plan_compile.shape_atom q) q.Compile.atoms in
  let arity i = Array.length shapes.(i).Plan_compile.sh_sources in
  let binder_descr i = if arity i <= 4 then "specialized" else "generic binder" in
  let mk descr run =
    Telemetry.bump c_compiled_plans 1;
    { cp_n_atoms = n_atoms; cp_descr = descr; cp_compiled = true; cp_run = run }
  in
  if n_atoms = 0 then begin
    (* Atomless (pure primitive) queries stay on the interpreter: there is
       no per-tuple loop to specialize. *)
    Telemetry.bump c_interp_fallbacks 1;
    {
      cp_n_atoms = 0;
      cp_descr = "interpreter (no atoms)";
      cp_compiled = false;
      cp_run =
        (fun db cache ranges callback ->
          search_dispatch db ?cache ~fast_paths q ~ranges callback);
    }
  end
  else if order_free ~fast_paths q && n_atoms = 1 then
    mk
      (Printf.sprintf "compiled single-atom (arity %d, %s)" (arity 0) (binder_descr 0))
      (compile_single q shapes.(0))
  else if order_free ~fast_paths q then
    mk
      (Printf.sprintf "compiled two-atom (arities %d+%d, %s/%s)" (arity 0) (arity 1)
         (binder_descr 0) (binder_descr 1))
      (compile_two q shapes)
  else mk (Printf.sprintf "compiled generic (%d atoms)" n_atoms) (compile_generic q shapes)

let compiled_descr cp = cp.cp_descr
let is_compiled cp = cp.cp_compiled

(* Lowering class without building closures (and without touching the
   compiled-plans counters): what [--explain-plans] prints. *)
let describe_lowering ?(fast_paths = true) (q : Compile.cquery) : string =
  let n_atoms = Array.length q.Compile.atoms in
  let arity i = Array.length (Plan_compile.shape_atom q q.Compile.atoms.(i)).Plan_compile.sh_sources in
  let binder_descr i = if arity i <= 4 then "specialized" else "generic binder" in
  if n_atoms = 0 then "interpreter (no atoms)"
  else if order_free ~fast_paths q && n_atoms = 1 then
    Printf.sprintf "compiled single-atom (arity %d, %s)" (arity 0) (binder_descr 0)
  else if order_free ~fast_paths q then
    Printf.sprintf "compiled two-atom (arities %d+%d, %s/%s)" (arity 0) (arity 1)
      (binder_descr 0) (binder_descr 1)
  else Printf.sprintf "compiled generic (%d atoms)" n_atoms

let search_compiled db ?cache (cp : compiled) ~(ranges : stamp_range array) callback =
  if Array.length ranges <> cp.cp_n_atoms then
    invalid_arg "Join.search_compiled: ranges arity mismatch";
  cp.cp_run db cache ranges (count_yields callback)

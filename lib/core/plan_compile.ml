(* Plan compilation: lower a query plan (a {!Compile.cquery}) to
   specialized OCaml closures, built once per rule and reused by every
   delta variant and iteration, so no row pays for a checks-list
   traversal, a position test per cell read, or a symbol-table-resolved
   primitive call.
   All of that is resolved at construction time:

   - cell reads go through {!Table.reader}/{!Table.int_reader}, which fix
     the key-vs-output branch and (for i64/bool/sort columns) the unboxed
     integer representation per column;
   - constant and same-column checks are compiled to direct closures with
     the constant's payload hoisted out of the loop;
   - binding loops are hand-specialized per source arity (1-4), with a
     generic readers-array fallback above;
   - primitive guards are pre-resolved to their [impl] function pointers
     with argument evaluators, and read the bind-or-check decision the
     plan fixed when it scheduled them.

   This module holds the table-level toolkit; the lowered evaluators that
   tie these kernels to tries, indexes and the cache live in {!Join}. *)

type check =
  | Check_const of int * Value.t  (* position must equal the literal *)
  | Check_same of int * int  (* position must equal an earlier position *)

type shape = {
  sh_func : Schema.func;
  sh_checks : check list;
  sh_sources : int array;  (* row positions feeding the binding path, in order *)
  sh_vars : int array;  (* the query var bound at each path level *)
  sh_lookup : bool;  (* every key column is a constant or a variable bound earlier *)
}

(* Whether an atom is a point query: its whole key is known before it is
   read — every key column a constant, or a variable [bound] by an
   earlier atom. A function maps a key to at most one row, so such an
   atom is a [Table.get], never a scan or an index. *)
let key_args (atom : Compile.atom) =
  Array.sub atom.Compile.a_args 0 (Array.length atom.Compile.a_args - 1)

let key_bound ~bound atom =
  Array.for_all (function Compile.A_const _ -> true | Compile.A_var v -> bound v) (key_args atom)

(* The per-atom analysis behind every lowering: which row positions must
   pass checks, and which feed variable bindings, in the plan's
   variable-depth order, and whether the atom is a lookup once the
   variables [bound] (default: none) are known. The join cache keys on
   checks and sources, so every lowering that reads an atom asks for the
   same entry. *)
let shape_atom ?(bound = fun _ -> false) (q : Compile.cquery) (atom : Compile.atom) : shape =
  let n = Array.length atom.Compile.a_args in
  let first_pos : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let checks = ref [] in
  for i = 0 to n - 1 do
    match atom.Compile.a_args.(i) with
    | Compile.A_const v -> checks := Check_const (i, v) :: !checks
    | Compile.A_var var -> (
      match Hashtbl.find_opt first_pos var with
      | None -> Hashtbl.add first_pos var i
      | Some j -> checks := Check_same (i, j) :: !checks)
  done;
  let distinct = Hashtbl.fold (fun var pos acc -> (var, pos) :: acc) first_pos [] in
  let sorted =
    List.sort
      (fun (v1, _) (v2, _) ->
        Stdlib.compare q.Compile.var_depth.(v1) q.Compile.var_depth.(v2))
      distinct
  in
  {
    sh_func = atom.Compile.a_func;
    sh_checks = List.rev !checks;
    sh_sources = Array.of_list (List.map snd sorted);
    sh_vars = Array.of_list (List.map fst sorted);
    sh_lookup = key_bound ~bound atom;
  }

(* ------------------------------------------------------------------ *)
(* Row filters: checks compiled with constants hoisted                 *)
(* ------------------------------------------------------------------ *)

type filter = Value.t array -> Table.row -> bool

let no_filter : filter = fun _ _ -> true

let int_const = function
  | Value.VInt n -> Some n
  | Value.VId n -> Some n
  | Value.VBool b -> Some (Bool.to_int b)
  | Value.VUnit | Value.VRat _ | Value.VStr _ | Value.VSet _ | Value.VVec _ -> None

let compile_check (f : Schema.func) (c : check) : filter =
  match c with
  | Check_const (i, v) -> (
    match (Table.int_reader f i, int_const v) with
    | Some r, Some k -> fun key row -> r key row = k
    | _ -> (
      match Table.column_ty f i with
      | Ty.Unit -> no_filter  (* a Unit column holds only VUnit *)
      | _ ->
        let r = Table.reader f i in
        fun key row -> Value.equal (r key row) v))
  | Check_same (i, j) -> (
    match (Table.int_reader f i, Table.int_reader f j) with
    | Some ri, Some rj -> fun key row -> ri key row = rj key row
    | _ -> (
      match (Table.column_ty f i, Table.column_ty f j) with
      | Ty.Unit, Ty.Unit -> no_filter
      | _ ->
        let ri = Table.reader f i and rj = Table.reader f j in
        fun key row -> Value.equal (ri key row) (rj key row)))

let compile_filter (f : Schema.func) (checks : check list) : filter =
  match List.map (compile_check f) checks with
  | [] -> no_filter
  | [ c ] -> c
  | [ c1; c2 ] -> fun key row -> c1 key row && c2 key row
  | cs ->
    let arr = Array.of_list cs in
    let n = Array.length arr in
    fun key row ->
      let ok = ref true and i = ref 0 in
      while !ok && !i < n do
        ok := arr.(!i) key row;
        incr i
      done;
      !ok

(* The key a lookup atom reads by, from its constants and the environment
   slots of its bound variables. An all-constant key is built once, here;
   otherwise each instantiation owns one buffer, refilled per read
   ([Table.get] keeps no reference to it). *)
let compile_key (atom : Compile.atom) : unit -> Value.t array -> Value.t array =
  let args = key_args atom in
  let template = Array.map (function Compile.A_const c -> c | Compile.A_var _ -> Value.VUnit) args in
  let slots =
    List.concat
      (List.mapi
         (fun i -> function Compile.A_var v -> [ (i, v) ] | Compile.A_const _ -> [])
         (Array.to_list args))
  in
  match slots with
  | [] -> fun () _ -> template
  | _ ->
    fun () ->
      let key = Array.copy template in
      fun env ->
        List.iter (fun (i, v) -> key.(i) <- env.(v)) slots;
        key

(* ------------------------------------------------------------------ *)
(* Binding loops: monomorphic per arity 1-4, generic above             *)
(* ------------------------------------------------------------------ *)

(* [bind env key row] writes the atom's variables into [env]. *)
let compile_binder (f : Schema.func) ~(vars : int array) ~(sources : int array) :
    Value.t array -> Value.t array -> Table.row -> unit =
  let r l = Table.reader f sources.(l) in
  match Array.length sources with
  | 0 -> fun _ _ _ -> ()
  | 1 ->
    let v0 = vars.(0) and r0 = r 0 in
    fun env key row -> env.(v0) <- r0 key row
  | 2 ->
    let v0 = vars.(0) and v1 = vars.(1) and r0 = r 0 and r1 = r 1 in
    fun env key row ->
      env.(v0) <- r0 key row;
      env.(v1) <- r1 key row
  | 3 ->
    let v0 = vars.(0) and v1 = vars.(1) and v2 = vars.(2) in
    let r0 = r 0 and r1 = r 1 and r2 = r 2 in
    fun env key row ->
      env.(v0) <- r0 key row;
      env.(v1) <- r1 key row;
      env.(v2) <- r2 key row
  | 4 ->
    let v0 = vars.(0) and v1 = vars.(1) and v2 = vars.(2) and v3 = vars.(3) in
    let r0 = r 0 and r1 = r 1 and r2 = r 2 and r3 = r 3 in
    fun env key row ->
      env.(v0) <- r0 key row;
      env.(v1) <- r1 key row;
      env.(v2) <- r2 key row;
      env.(v3) <- r3 key row
  | n ->
    let readers = Array.init n r in
    fun env key row ->
      for l = 0 to n - 1 do
        env.(vars.(l)) <- readers.(l) key row
      done

(* ------------------------------------------------------------------ *)
(* Primitive guards: impl pointers and bind-or-check pre-resolved      *)
(* ------------------------------------------------------------------ *)

type prim_out = Out_bind of int | Out_check_var of int | Out_check_const of Value.t

type prim_step = {
  st_impl : Value.t array -> Value.t option;  (* direct function pointer *)
  st_args : (Value.t array -> Value.t) array;  (* env -> argument value *)
  st_out : prim_out;
}

let always_true : Value.t array -> bool = fun _ -> true

(* Compile a primitive checklist, in schedule order, over an environment
   holding every variable the plan has bound when it runs. Whether a step
   binds its output or checks it is the plan's [p_binds], fixed when
   {!Compile} scheduled it, so one checklist serves every lowering: the
   whole schedule after a single- or two-atom kernel has bound its atoms'
   variables, one depth's entry inside the generic trie join. Returns a
   maker: each instantiation owns private argument buffers, so one
   compiled plan can be searched from several domains concurrently (each
   search instantiates its own runner). The argument buffer is reused
   from row to row — safe because primitive impls never retain their
   argument array. *)
let compile_prims (prims : Compile.prim_app list) : unit -> Value.t array -> bool =
  match prims with
  | [] -> fun () -> always_true
  | _ ->
    let steps =
      Array.of_list
        (List.map
           (fun (p : Compile.prim_app) ->
             {
               st_impl = p.Compile.p_prim.Primitives.impl;
               st_args =
                 Array.map
                   (function
                     | Compile.A_const v -> fun _ -> v
                     | Compile.A_var v -> fun (env : Value.t array) -> env.(v))
                   p.Compile.p_args;
               st_out =
                 (match p.Compile.p_out with
                 | Compile.A_var v when p.Compile.p_binds -> Out_bind v
                 | Compile.A_var v -> Out_check_var v
                 | Compile.A_const c -> Out_check_const c);
             })
           prims)
    in
    let n = Array.length steps in
    fun () ->
      let bufs = Array.map (fun st -> Array.make (Array.length st.st_args) Value.VUnit) steps in
      fun env ->
        let ok = ref true and i = ref 0 in
        while !ok && !i < n do
          let st = steps.(!i) in
          let buf = bufs.(!i) in
          for k = 0 to Array.length st.st_args - 1 do
            buf.(k) <- st.st_args.(k) env
          done;
          (match st.st_impl buf with
          | None -> ok := false
          | Some result -> (
            match st.st_out with
            | Out_bind v -> env.(v) <- result
            | Out_check_var v -> ok := Value.equal env.(v) result
            | Out_check_const c -> ok := Value.equal c result));
          incr i
        done;
        !ok

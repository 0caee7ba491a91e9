exception Error of string
exception Unsat

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type arg = A_var of int | A_const of Value.t
type atom = { a_func : Schema.func; a_args : arg array }
type prim_app = {
  p_prim : Primitives.prim;
  p_args : arg array;
  p_out : arg;
  p_binds : bool;  (* fixed by [finish_plan]: first write of a prim-computed var *)
}

type cquery = {
  n_vars : int;
  var_names : string array;
  var_tys : Ty.t array;
  atoms : atom array;
  order : int array;
  var_depth : int array;
  schedule : prim_app list array;
  name_args : (string * arg) list;
      (* user variable name -> surviving variable or constant, after the
         query's equalities are resolved *)
}

type cexpr =
  | C_var of int
  | C_const of Value.t
  | C_func of Schema.func * cexpr array
  | C_prim of Primitives.prim * cexpr array

type caction =
  | C_set of Schema.func * cexpr array * cexpr
  | C_union of cexpr * cexpr
  | C_let of int * cexpr
  | C_do of cexpr
  | C_panic of string
  | C_delete of Schema.func * cexpr array

type crule = { cr_name : string; cr_query : cquery; cr_actions : caction array; cr_slots : int }
type env = { find_func : string -> Schema.func option }

let const_ty v = Value.type_of ~sort_of_id:(fun _ -> assert false) v

(* ------------------------------------------------------------------ *)
(* Query flattening                                                    *)
(* ------------------------------------------------------------------ *)

(* Raw atoms/prims use provisional variable ids; [Eq] facts induce a
   union-find over those ids (plus constant bindings), applied before
   planning. *)
type qstate = {
  env : env;
  names : (string, int) Hashtbl.t;  (* user variable -> raw var *)
  mutable raw_names : string list;  (* reverse order *)
  mutable n_raw : int;
  mutable ratoms : (Schema.func * arg array) list;
  mutable rprims : (Primitives.prim * arg array * arg) list;
  mutable equalities : (arg * arg) list;
}

let fresh_var st name =
  let v = st.n_raw in
  st.n_raw <- v + 1;
  st.raw_names <- name :: st.raw_names;
  v

let named_var st x =
  match Hashtbl.find_opt st.names x with
  | Some v -> v
  | None ->
    let v = fresh_var st x in
    Hashtbl.add st.names x v;
    v

(* Flatten an expression to an argument, emitting atoms/prims. *)
let rec flatten_expr st (e : Ast.expr) : arg =
  match e with
  | Ast.Lit v -> A_const v
  | Ast.Var x -> (
    match Hashtbl.find_opt st.names x with
    | Some v -> A_var v
    | None -> (
      (* a bare name that denotes a declared nullary function is a call *)
      match st.env.find_func x with
      | Some f when Schema.arity f = 0 -> flatten_expr st (Ast.Call (x, []))
      | Some _ | None -> A_var (named_var st x)))
  | Ast.Call (fname, args) -> (
    let flat_args = List.map (flatten_expr st) args in
    match st.env.find_func fname with
    | Some f ->
      if List.length args <> Schema.arity f then
        error "function %s expects %d arguments, got %d" fname (Schema.arity f) (List.length args);
      let out = fresh_var st (Printf.sprintf "$%d" st.n_raw) in
      st.ratoms <- (f, Array.of_list (flat_args @ [ A_var out ])) :: st.ratoms;
      A_var out
    | None -> (
      match Primitives.find fname with
      | Some p ->
        let out = fresh_var st (Printf.sprintf "$%d" st.n_raw) in
        st.rprims <- (p, Array.of_list flat_args, A_var out) :: st.rprims;
        A_var out
      | None -> error "unknown function or primitive %s" fname))

let flatten_fact st (fact : Ast.fact) =
  match fact with
  | Ast.Eq (e1, e2) ->
    let a1 = flatten_expr st e1 and a2 = flatten_expr st e2 in
    st.equalities <- (a1, a2) :: st.equalities
  | Ast.Holds e -> (
    match e with
    | Ast.Call (fname, _) when st.env.find_func fname <> None ->
      (* [Holds (f args)]: require f defined on args; output unconstrained
         except for unit functions, where it is the unit value. *)
      let out = flatten_expr st e in
      let f = Option.get (st.env.find_func fname) in
      if Ty.equal f.ret_ty Ty.Unit then st.equalities <- (out, A_const Value.VUnit) :: st.equalities
    | Ast.Call _ | Ast.Var _ | Ast.Lit _ -> ignore (flatten_expr st e))

(* ------------------------------------------------------------------ *)
(* Equality resolution: union-find over raw vars + constant bindings   *)
(* ------------------------------------------------------------------ *)

let resolve_equalities st =
  let parent = Array.init st.n_raw Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let consts : (int, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let bind_const root v =
    match Hashtbl.find_opt consts root with
    | None -> Hashtbl.replace consts root v
    | Some v' -> if not (Value.equal v v') then raise Unsat
  in
  List.iter
    (fun (a1, a2) ->
      match (a1, a2) with
      | A_var x, A_var y ->
        let rx = find x and ry = find y in
        if rx <> ry then begin
          parent.(rx) <- ry;
          (match Hashtbl.find_opt consts rx with
           | Some v ->
             Hashtbl.remove consts rx;
             bind_const ry v
           | None -> ())
        end
      | A_var x, A_const v | A_const v, A_var x -> bind_const (find x) v
      | A_const v1, A_const v2 -> if not (Value.equal v1 v2) then raise Unsat)
    st.equalities;
  (* Make sure merged const bindings ended up on the final roots. *)
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) consts [] in
  Hashtbl.reset consts;
  List.iter (fun (k, v) -> bind_const (find k) v) entries;
  let subst raw =
    let root = find raw in
    match Hashtbl.find_opt consts root with Some v -> A_const v | None -> A_var root
  in
  subst

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* The number of atoms each variable occurs in. *)
let occurrences ~n_vars (atoms : atom array) =
  let occ = Array.make n_vars 0 and last_atom = Array.make n_vars (-1) in
  Array.iteri
    (fun ai atom ->
      Array.iter
        (function
          | A_var v when last_atom.(v) <> ai ->
            last_atom.(v) <- ai;
            occ.(v) <- occ.(v) + 1
          | A_var _ | A_const _ -> ())
        atom.a_args)
    atoms;
  occ

(* Turn a chosen variable [order] — every variable some atom covers —
   into a full plan: per-variable depths plus the primitive schedule,
   each scheduled primitive marked bind or check. Shared by the
   compile-time plan and [reorder]. *)
let finish_plan ~var_names ~var_tys ~(atoms : atom array) ~(prims : prim_app list) ~name_args
    ~(order : int array) =
  let n_vars = Array.length var_names in
  let var_depth = Array.make n_vars 0 in
  Array.iteri (fun d v -> var_depth.(v) <- d + 1) order;
  let n_steps = Array.length order in
  (* Schedule primitives: place each at the earliest depth where its inputs
     (and its output, when the output is a join variable) are available. *)
  let schedule = Array.make (n_steps + 1) [] in
  let bound = Array.make n_vars false in
  let remaining = ref prims in
  let place depth =
    let rec loop () =
      let progress = ref false in
      remaining :=
        List.filter
          (fun (p : prim_app) ->
            let arg_ready = function A_const _ -> true | A_var v -> bound.(v) in
            let inputs_ready = Array.for_all arg_ready p.p_args in
            let out_ready =
              match p.p_out with
              | A_const _ -> true
              | A_var v -> bound.(v) || var_depth.(v) = 0 (* computed: will bind now *)
            in
            if inputs_ready && out_ready then begin
              (* the first write of a computed variable binds it; every
                 other output is checked against a bound value *)
              let binds = match p.p_out with A_var v -> not bound.(v) | A_const _ -> false in
              schedule.(depth) <- { p with p_binds = binds } :: schedule.(depth);
              (match p.p_out with A_var v -> bound.(v) <- true | A_const _ -> ());
              progress := true;
              false
            end
            else true)
          !remaining;
      if !progress then loop ()
    in
    loop ()
  in
  place 0;
  for d = 0 to n_steps - 1 do
    bound.(order.(d)) <- true;
    place (d + 1)
  done;
  (match !remaining with
   | [] -> ()
   | (p : prim_app) :: _ -> error "cannot schedule primitive %s: some argument is unbound" p.p_prim.pname);
  (* [order] holds every variable an atom covers, so any other variable no
     primitive computes is bound by nothing *)
  Array.iteri
    (fun v depth ->
      if depth = 0 && not bound.(v) then error "variable %s is not bound by the query" var_names.(v))
    var_depth;
  (* preserve discovery order inside each depth *)
  let schedule = Array.map List.rev schedule in
  { n_vars; var_names; var_tys; atoms; order; var_depth; schedule; name_args }

(* The rule's one plan: most shared variables first (they constrain the
   most), ties in variable order. Generic join intersects every covering
   atom's cursor at each depth and iterates the smallest, so it needs no
   data-driven order. *)
let plan ~var_names ~var_tys ~(atoms : atom array) ~(prims : prim_app list) ~name_args =
  let n_vars = Array.length var_names in
  let occ = occurrences ~n_vars atoms in
  let join_vars = List.filter (fun v -> occ.(v) > 0) (List.init n_vars Fun.id) in
  let order =
    List.stable_sort (fun a b -> Int.compare occ.(b) occ.(a)) join_vars |> Array.of_list
  in
  finish_plan ~var_names ~var_tys ~atoms ~prims ~name_args ~order

let reorder (q : cquery) ~(order : int array) : cquery =
  let sorted a = List.sort Int.compare (Array.to_list a) in
  if sorted order <> sorted q.order then
    invalid_arg "Compile.reorder: order is not a permutation of the query's join variables";
  if order = q.order then q
  else
    finish_plan ~var_names:q.var_names ~var_tys:q.var_tys ~atoms:q.atoms
      ~prims:(List.concat (Array.to_list q.schedule))
      ~name_args:q.name_args ~order

(* ------------------------------------------------------------------ *)
(* Plan dumps                                                          *)
(* ------------------------------------------------------------------ *)

let pp_plan ?lowering fmt (q : cquery) =
  let arg_str = function A_var v -> q.var_names.(v) | A_const c -> Value.to_string c in
  Format.fprintf fmt "@[<v>";
  if Array.length q.atoms = 0 then Format.fprintf fmt "atoms: (none)"
  else begin
    Format.fprintf fmt "atoms:";
    Array.iteri
      (fun i atom ->
        let n = Array.length atom.a_args in
        let args = Array.to_list (Array.map arg_str (Array.sub atom.a_args 0 (n - 1))) in
        Format.fprintf fmt "@,  [%d] (%s%s) -> %s" i
          (Symbol.name atom.a_func.Schema.name)
          (String.concat "" (List.map (fun a -> " " ^ a) args))
          (arg_str atom.a_args.(n - 1)))
      q.atoms
  end;
  Format.fprintf fmt "@,order:";
  if Array.length q.order = 0 then Format.fprintf fmt " (none)"
  else Array.iter (fun v -> Format.fprintf fmt " %s" q.var_names.(v)) q.order;
  Array.iteri
    (fun d prims ->
      List.iter
        (fun (p : prim_app) ->
          Format.fprintf fmt "@,  prim@@%d (%s%s) -> %s" d p.p_prim.Primitives.pname
            (String.concat ""
               (List.map (fun a -> " " ^ arg_str a) (Array.to_list p.p_args)))
            (arg_str p.p_out))
        prims)
    q.schedule;
  (match lowering with
  | Some l -> Format.fprintf fmt "@,lowering: %s" l
  | None -> ());
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Type inference over the flattened query                             *)
(* ------------------------------------------------------------------ *)

let infer_types ~var_names ~(atoms : atom array) ~(prims : prim_app list) =
  let n_vars = Array.length var_names in
  let tys : Ty.t option array = Array.make n_vars None in
  let progress = ref true in
  let assign v ty =
    match tys.(v) with
    | None ->
      tys.(v) <- Some ty;
      progress := true
    | Some t ->
      if not (Ty.equal t ty) then
        error "variable %s has conflicting types %s and %s" var_names.(v) (Ty.to_string t)
          (Ty.to_string ty)
  in
  let check_const v ty =
    if not (Ty.equal (const_ty v) ty) then
      error "literal %s does not have expected type %s" (Value.to_string v) (Ty.to_string ty)
  in
  let apply_arg arg ty =
    match arg with A_var v -> assign v ty | A_const v -> check_const v ty
  in
  let ty_of_arg = function
    | A_const v -> Some (const_ty v)
    | A_var v -> tys.(v)
  in
  while !progress do
    progress := false;
    Array.iter
      (fun atom ->
        let f = atom.a_func in
        Array.iteri
          (fun i arg ->
            let want = if i < Schema.arity f then f.arg_tys.(i) else f.ret_ty in
            match (arg, tys) with
            | A_var v, _ when tys.(v) = None -> assign v want
            | A_var v, _ -> (
              match tys.(v) with
              | Some t when not (Ty.equal t want) ->
                error "variable %s used at type %s but has type %s" var_names.(v)
                  (Ty.to_string want) (Ty.to_string t)
              | _ -> ())
            | A_const c, _ -> check_const c want)
          atom.a_args)
      atoms;
    List.iter
      (fun (p : prim_app) ->
        let args = Array.to_list (Array.map ty_of_arg p.p_args) in
        let ret = ty_of_arg p.p_out in
        match p.p_prim.typer ~args ~ret with
        | Some t -> apply_arg p.p_out t
        | None -> ())
      prims
  done;
  (* Final validation: every variable typed, every primitive resolves. *)
  Array.iteri
    (fun v ty ->
      if ty = None then error "cannot infer the type of variable %s" var_names.(v))
    tys;
  List.iter
    (fun (p : prim_app) ->
      let args = Array.to_list (Array.map ty_of_arg p.p_args) in
      let ret = ty_of_arg p.p_out in
      match p.p_prim.typer ~args ~ret with
      | Some _ -> ()
      | None -> error "primitive %s is applied at unsupported types" p.p_prim.pname)
    prims;
  Array.map Option.get tys

(* ------------------------------------------------------------------ *)
(* Entry: query compilation                                            *)
(* ------------------------------------------------------------------ *)

let compile_query env (facts : Ast.fact list) : cquery =
  let st =
    {
      env;
      names = Hashtbl.create 16;
      raw_names = [];
      n_raw = 0;
      ratoms = [];
      rprims = [];
      equalities = [];
    }
  in
  List.iter (flatten_fact st) facts;
  let subst = resolve_equalities st in
  let subst_arg = function A_var v -> subst v | A_const _ as c -> c in
  (* Renumber surviving raw vars densely. *)
  let renum : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let raw_names = Array.of_list (List.rev st.raw_names) in
  let names_acc = ref [] in
  let var_of_raw raw =
    match Hashtbl.find_opt renum raw with
    | Some v -> v
    | None ->
      let v = Hashtbl.length renum in
      Hashtbl.add renum raw v;
      names_acc := raw_names.(raw) :: !names_acc;
      v
  in
  let final_arg arg =
    match subst_arg arg with A_var raw -> A_var (var_of_raw raw) | A_const _ as c -> c
  in
  let atoms =
    List.rev_map
      (fun (f, args) -> { a_func = f; a_args = Array.map final_arg args })
      st.ratoms
    |> Array.of_list
  in
  let prims =
    List.rev_map
      (fun (p, args, out) ->
        { p_prim = p; p_args = Array.map final_arg args; p_out = final_arg out; p_binds = false })
      st.rprims
  in
  let name_args =
    Hashtbl.fold (fun name raw acc -> (name, final_arg (A_var raw)) :: acc) st.names []
  in
  (* A user variable may survive only through [name_args] (e.g. when unified
     with an internal variable): make sure it still owns a slot by touching
     its renumbering through final_arg above; constants need nothing. *)
  let var_names = Array.of_list (List.rev !names_acc) in
  let var_tys = infer_types ~var_names ~atoms ~prims in
  plan ~var_names ~var_tys ~atoms ~prims ~name_args

(* ------------------------------------------------------------------ *)
(* Expression and action compilation                                   *)
(* ------------------------------------------------------------------ *)

type scope = {
  senv : env;
  slots : (string, int) Hashtbl.t;
  sconsts : (string, Value.t) Hashtbl.t;  (* names equated to literals *)
  mutable slot_tys : Ty.t list;  (* reverse order *)
  mutable n_slots : int;
}

let fresh_scope senv =
  { senv; slots = Hashtbl.create 16; sconsts = Hashtbl.create 4; slot_tys = []; n_slots = 0 }

let scope_add scope name ty =
  let slot = scope.n_slots in
  scope.n_slots <- slot + 1;
  scope.slot_tys <- ty :: scope.slot_tys;
  Hashtbl.replace scope.slots name slot;
  slot

let scope_ty scope slot = List.nth scope.slot_tys (scope.n_slots - 1 - slot)

let rec compile_expr scope ?expected (e : Ast.expr) : cexpr * Ty.t =
  let check ty =
    match expected with
    | Some want when not (Ty.equal want ty) ->
      error "expression %s has type %s but %s was expected"
        (Format.asprintf "%a" Ast.pp_expr e)
        (Ty.to_string ty) (Ty.to_string want)
    | Some _ | None -> ()
  in
  match e with
  | Ast.Lit v ->
    let ty = const_ty v in
    check ty;
    (C_const v, ty)
  | Ast.Var x -> (
    match Hashtbl.find_opt scope.slots x with
    | Some slot ->
      let ty = scope_ty scope slot in
      check ty;
      (C_var slot, ty)
    | None -> (
      match Hashtbl.find_opt scope.sconsts x with
      | Some v ->
        let ty = const_ty v in
        check ty;
        (C_const v, ty)
      | None -> (
        match scope.senv.find_func x with
        | Some f when Schema.arity f = 0 ->
          check f.ret_ty;
          (C_func (f, [||]), f.ret_ty)
        | Some _ | None -> error "unbound variable %s" x)))
  | Ast.Call (fname, args) -> (
    match scope.senv.find_func fname with
    | Some f ->
      if List.length args <> Schema.arity f then
        error "function %s expects %d arguments, got %d" fname (Schema.arity f) (List.length args);
      let cargs =
        List.mapi (fun i a -> fst (compile_expr scope ~expected:f.arg_tys.(i) a)) args
      in
      check f.ret_ty;
      (C_func (f, Array.of_list cargs), f.ret_ty)
    | None -> (
      match Primitives.find fname with
      | Some p ->
        let hints = Primitives.arg_hints fname ~ret:expected ~nargs:(List.length args) in
        let compiled =
          List.mapi
            (fun i a ->
              match List.nth_opt hints i with
              | Some (Some expected) -> compile_expr scope ~expected a
              | Some None | None -> compile_expr scope a)
            args
        in
        let arg_tys = List.map (fun (_, t) -> Some t) compiled in
        (match p.typer ~args:arg_tys ~ret:expected with
         | Some ty ->
           check ty;
           (C_prim (p, Array.of_list (List.map fst compiled)), ty)
         | None -> error "primitive %s is applied at unsupported types" fname)
      | None -> error "unknown function or primitive %s" fname))

let compile_action scope (a : Ast.action) : caction =
  match a with
  | Ast.Set (fname, args, value) -> (
    match scope.senv.find_func fname with
    | None -> error "set: unknown function %s" fname
    | Some f ->
      if List.length args <> Schema.arity f then
        error "function %s expects %d arguments, got %d" fname (Schema.arity f) (List.length args);
      let cargs =
        List.mapi (fun i a -> fst (compile_expr scope ~expected:f.arg_tys.(i) a)) args
      in
      let cvalue, _ = compile_expr scope ~expected:f.ret_ty value in
      C_set (f, Array.of_list cargs, cvalue))
  | Ast.Union (e1, e2) ->
    let c1, t1 = compile_expr scope e1 in
    let c2, _ = compile_expr scope ~expected:t1 e2 in
    if not (Ty.is_sort t1) then
      error "union requires values of an uninterpreted sort, got %s" (Ty.to_string t1);
    C_union (c1, c2)
  | Ast.Let (x, e) ->
    let ce, ty = compile_expr scope e in
    let slot = scope_add scope x ty in
    C_let (slot, ce)
  | Ast.Do e ->
    let ce, _ = compile_expr scope e in
    C_do ce
  | Ast.Panic msg -> C_panic msg
  | Ast.Delete (fname, args) -> (
    match scope.senv.find_func fname with
    | None -> error "delete: unknown function %s" fname
    | Some f ->
      let cargs =
        List.mapi (fun i a -> fst (compile_expr scope ~expected:f.arg_tys.(i) a)) args
      in
      C_delete (f, Array.of_list cargs))

let compile_rule env ~name (rule : Ast.rule) : crule =
  let cq = compile_query env rule.query in
  let scope = fresh_scope env in
  (* Query variables occupy the first slots, in order. *)
  Array.iteri
    (fun i vname ->
      let slot = scope_add scope vname cq.var_tys.(i) in
      assert (slot = i))
    cq.var_names;
  (* User names whose class survived under another representative (or was
     bound to a literal) still need to resolve in actions. *)
  List.iter
    (fun (uname, arg) ->
      if not (Hashtbl.mem scope.slots uname) then begin
        match arg with
        | A_var v -> Hashtbl.replace scope.slots uname v
        | A_const c -> Hashtbl.replace scope.sconsts uname c
      end)
    cq.name_args;
  let actions = List.map (compile_action scope) rule.actions in
  { cr_name = name; cr_query = cq; cr_actions = Array.of_list actions; cr_slots = scope.n_slots }

let compile_top_actions env (actions : Ast.action list) =
  let scope = fresh_scope env in
  let cas = List.map (compile_action scope) actions in
  (Array.of_list cas, scope.n_slots)

let compile_closed_expr env ?expected (e : Ast.expr) =
  compile_expr (fresh_scope env) ?expected e

let compile_merge_expr env (f : Schema.func) (e : Ast.expr) =
  let scope = fresh_scope env in
  ignore (scope_add scope "old" f.Schema.ret_ty);
  ignore (scope_add scope "new" f.Schema.ret_ty);
  fst (compile_expr scope ~expected:f.Schema.ret_ty e)

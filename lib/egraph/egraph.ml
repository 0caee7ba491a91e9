type op = Op of string | Lit of int
type term = T of op * term list
type pattern = P_var of string | P_app of op * pattern list
type subst = (string * int) list
type rewrite = { rw_name : string; lhs : pattern; rhs : pattern }

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let op_of_atom s =
  match int_of_string_opt s with Some i -> Lit i | None -> Op s

let rec term_of_sexp (s : Sexpr.t) : term =
  match s with
  | Sexpr.Int i -> T (Lit i, [])
  | Sexpr.Atom a -> T (op_of_atom a, [])
  | Sexpr.List (Sexpr.Atom f :: args) -> T (Op f, List.map term_of_sexp args)
  | _ -> raise (Parse_error (Sexpr.to_string s))

let term_of_string s = term_of_sexp (Sexpr.parse_one s)

let rec pattern_of_sexp (s : Sexpr.t) : pattern =
  match s with
  | Sexpr.Int i -> P_app (Lit i, [])
  | Sexpr.Atom a when String.length a > 0 && a.[0] = '?' ->
    P_var (String.sub a 1 (String.length a - 1))
  | Sexpr.Atom a -> P_app (op_of_atom a, [])
  | Sexpr.List (Sexpr.Atom f :: args) -> P_app (Op f, List.map pattern_of_sexp args)
  | _ -> raise (Parse_error (Sexpr.to_string s))

let pattern_of_string s = pattern_of_sexp (Sexpr.parse_one s)

let rewrite_of_strings ~name lhs rhs =
  { rw_name = name; lhs = pattern_of_string lhs; rhs = pattern_of_string rhs }

let rec term_to_string (T (op, args)) =
  let head = match op with Op s -> s | Lit i -> string_of_int i in
  match args with
  | [] -> head
  | _ -> "(" ^ head ^ " " ^ String.concat " " (List.map term_to_string args) ^ ")"

(* ------------------------------------------------------------------ *)
(* The e-graph                                                         *)
(* ------------------------------------------------------------------ *)

type node = { op : op; args : int array }

module Node_tbl = Hashtbl.Make (struct
  type t = node

  let equal a b = a.op = b.op && Array.length a.args = Array.length b.args
                  && Array.for_all2 Int.equal a.args b.args

  let hash n =
    let h = ref (Hashtbl.hash n.op) in
    Array.iter (fun c -> h := (!h * 31) lxor c) n.args;
    !h land max_int
end)

type eclass = {
  mutable nodes : node list;
  mutable parents : (node * int) list;
  mutable const : int option;  (* constant-folding analysis data *)
}

type t = {
  uf : Union_find.t;
  hashcons : int Node_tbl.t;
  classes : (int, eclass) Hashtbl.t;
  const_ops : (string, int list -> int option) Hashtbl.t;
  mutable dirty : int list;  (* classes to repair during rebuild *)
  mutable pending_analysis : int list;
}

let create ?(const_ops = []) () =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (name, f) -> Hashtbl.replace tbl name f) const_ops;
  {
    uf = Union_find.create ();
    hashcons = Node_tbl.create 256;
    classes = Hashtbl.create 256;
    const_ops = tbl;
    dirty = [];
    pending_analysis = [];
  }

let find eg id = Union_find.find eg.uf id
let equiv eg a b = find eg a = find eg b
let get_class eg id = Hashtbl.find eg.classes (find eg id)
let canon_node eg n = { n with args = Array.map (find eg) n.args }
let n_nodes eg = Node_tbl.length eg.hashcons
let n_classes eg = Union_find.n_classes eg.uf
let class_const eg id = (get_class eg id).const

(* Evaluate the analysis for a single node from its children's data. *)
let analysis_make eg (n : node) : int option =
  match n.op with
  | Lit i -> Some i
  | Op name -> (
    match Hashtbl.find_opt eg.const_ops name with
    | None -> None
    | Some f ->
      let child_data = Array.map (fun c -> (get_class eg c).const) n.args in
      if Array.for_all Option.is_some child_data then
        f (Array.to_list (Array.map Option.get child_data))
      else None)

(* Forward declaration dance: union and analysis update recurse. *)
let rec add_node eg op args =
  let n = canon_node eg { op; args = Array.of_list args } in
  match Node_tbl.find_opt eg.hashcons n with
  | Some id -> find eg id
  | None ->
    let id = Union_find.make_set eg.uf in
    Hashtbl.replace eg.classes id { nodes = [ n ]; parents = []; const = None };
    Node_tbl.replace eg.hashcons n id;
    Array.iter
      (fun child ->
        let c = get_class eg child in
        c.parents <- (n, id) :: c.parents)
      n.args;
    update_analysis eg id n;
    id

and update_analysis eg id n =
  match analysis_make eg n with
  | None -> ()
  | Some v -> (
    let cls = get_class eg id in
    match cls.const with
    | Some v' when v' = v -> ()
    | Some _ | None ->
      cls.const <- Some v;
      (* modify: materialize the constant in the class, as egg's math
         analysis does, enabling constant folding without a rule *)
      let lit_id = add_node eg (Lit v) [] in
      ignore (union eg id lit_id))

and union eg a b =
  let ra = find eg a and rb = find eg b in
  if ra = rb then ra
  else begin
    let ca = Hashtbl.find eg.classes ra and cb = Hashtbl.find eg.classes rb in
    let w = Union_find.union eg.uf ra rb in
    let winner, loser_cls = if w = ra then (ca, cb) else (cb, ca) in
    let loser_id = if w = ra then rb else ra in
    winner.nodes <- loser_cls.nodes @ winner.nodes;
    winner.parents <- loser_cls.parents @ winner.parents;
    (match (winner.const, loser_cls.const) with
     | None, Some v -> winner.const <- Some v
     | Some v1, Some v2 when v1 <> v2 ->
       failwith
         (Printf.sprintf "egraph: analysis conflict %d vs %d (unsound rules?)" v1 v2)
     | _ -> ());
    Hashtbl.remove eg.classes loser_id;
    eg.dirty <- w :: eg.dirty;
    w
  end

let add_term eg t =
  let rec go (T (op, args)) = add_node eg op (List.map go args) in
  go t

(* ------------------------------------------------------------------ *)
(* Rebuilding (deferred, as in egg §3)                                 *)
(* ------------------------------------------------------------------ *)

let repair eg id =
  let id0 = find eg id in
  let cls = Hashtbl.find eg.classes id0 in
  (* Re-canonicalize parents; congruent parents collapse via union. *)
  let parents = cls.parents in
  cls.parents <- [];
  let seen = Node_tbl.create (List.length parents + 1) in
  List.iter
    (fun (pnode, pcls) ->
      Node_tbl.remove eg.hashcons pnode;
      let pn = canon_node eg pnode in
      match Node_tbl.find_opt seen pn with
      | Some other -> ignore (union eg other (find eg pcls))
      | None -> Node_tbl.replace seen pn (find eg pcls))
    parents;
  Node_tbl.iter
    (fun pn pcls ->
      let pcls = find eg pcls in
      (match Node_tbl.find_opt eg.hashcons pn with
       | Some existing -> if find eg existing <> pcls then ignore (union eg existing pcls)
       | None -> Node_tbl.replace eg.hashcons pn pcls);
      (* Re-register the canonical form on EVERY child class (not just the
         repaired one): a later union of any child must be able to find and
         remove this hashcons entry, else stale keys leak. *)
      let pcls = find eg pcls in
      Array.iter
        (fun child ->
          let c = get_class eg child in
          c.parents <- (pn, pcls) :: c.parents)
        pn.args;
      (* analysis data may now flow upward through this parent *)
      eg.pending_analysis <- pcls :: eg.pending_analysis)
    seen;
  let cls = Hashtbl.find eg.classes (find eg id0) in
  (* dedupe own nodes *)
  let node_set = Node_tbl.create (List.length cls.nodes) in
  List.iter (fun n -> Node_tbl.replace node_set (canon_node eg n) ()) cls.nodes;
  cls.nodes <- Node_tbl.fold (fun n () acc -> n :: acc) node_set []

let rebuild eg =
  while eg.dirty <> [] || eg.pending_analysis <> [] do
    let todo = eg.dirty in
    eg.dirty <- [];
    let seen = Hashtbl.create 16 in
    List.iter
      (fun id ->
        let id = find eg id in
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          repair eg id
        end)
      todo;
    let pending = eg.pending_analysis in
    eg.pending_analysis <- [];
    List.iter
      (fun id ->
        let id = find eg id in
        let cls = Hashtbl.find eg.classes id in
        List.iter (fun n -> update_analysis eg id n) cls.nodes)
      pending
  done

(* ------------------------------------------------------------------ *)
(* E-matching (backtracking, as in egg)                                *)
(* ------------------------------------------------------------------ *)

let rec match_pattern eg (pat : pattern) (cls : int) (s : subst) : subst list =
  match pat with
  | P_var x -> (
    match List.assoc_opt x s with
    | Some bound -> if find eg bound = find eg cls then [ s ] else []
    | None -> [ (x, find eg cls) :: s ])
  | P_app (op, ps) ->
    let cls = get_class eg cls in
    List.concat_map
      (fun (n : node) ->
        if n.op = op && Array.length n.args = List.length ps then begin
          let rec go i ps substs =
            match ps with
            | [] -> substs
            | p :: rest ->
              let substs' =
                List.concat_map (fun s -> match_pattern eg p n.args.(i) s) substs
              in
              go (i + 1) rest substs'
          in
          go 0 ps [ s ]
        end
        else [])
      cls.nodes

(* Stops once it holds [limit] matches, as egg's [search_with_limit]
   does: the class that reaches the limit is matched whole, and its
   matches past the limit are dropped. *)
let ematch ?(limit = max_int) eg pat =
  match pat with
  | P_var _ -> invalid_arg "ematch: top-level pattern variable"
  | P_app _ ->
    let acc = ref [] and n = ref 0 in
    (try
       Hashtbl.iter
         (fun id _cls ->
           if Union_find.is_canonical eg.uf id then
             List.iter
               (fun s ->
                 if !n >= limit then raise Exit;
                 acc := (id, s) :: !acc;
                 incr n)
               (match_pattern eg pat id []);
           if !n >= limit then raise Exit)
         eg.classes
     with Exit -> ());
    !acc

let rec instantiate eg (pat : pattern) (s : subst) : int =
  match pat with
  | P_var x -> (
    match List.assoc_opt x s with
    | Some id -> find eg id
    | None -> invalid_arg ("instantiate: unbound pattern variable ?" ^ x))
  | P_app (op, ps) -> add_node eg op (List.map (fun p -> instantiate eg p s) ps)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

type scheduler = Simple | Backoff of { match_limit : int; ban_length : int }

let backoff_default = Backoff { match_limit = 1000; ban_length = 5 }

type iter_stat = {
  is_index : int;
  is_nodes : int;
  is_classes : int;
  is_seconds : float;
  is_applied : int;
}

type run_stats = { iters : iter_stat list; saturated : bool; total_seconds : float }

type rule_state = { mutable times_banned : int; mutable banned_until : int }

let run eg ?(scheduler = Simple) ?(node_limit = max_int) rewrites n =
  let states = List.map (fun _ -> { times_banned = 0; banned_until = 0 }) rewrites in
  let stats = ref [] in
  let total = ref 0.0 in
  let saturated = ref false in
  (try
     for iter = 1 to n do
       let t_start = Unix.gettimeofday () in
       let nodes_before = n_nodes eg and classes_before = n_classes eg in
       (* A rule banned at iteration i for b iterations is searched again
          at i + b, as in egg's BackoffScheduler. Its search stops at
          threshold + 1 matches, which is enough to decide the ban. *)
       let searched =
         List.map2
           (fun rw st ->
             if iter < st.banned_until then (rw, st, None)
             else
               let limit =
                 match scheduler with
                 | Backoff { match_limit; _ } -> (match_limit lsl st.times_banned) + 1
                 | Simple -> max_int
               in
               (rw, st, Some (ematch ~limit eg rw.lhs)))
           rewrites states
       in
       let applied = ref 0 in
       List.iter
         (fun (rw, st, matches) ->
           match matches with
           | None -> ()
           | Some matches -> (
             match scheduler with
             | Backoff { match_limit; ban_length }
               when List.length matches > match_limit lsl st.times_banned ->
               st.banned_until <- iter + (ban_length lsl st.times_banned);
               st.times_banned <- st.times_banned + 1
             | Backoff _ | Simple ->
               List.iter
                 (fun (cls, s) ->
                   let rhs_id = instantiate eg rw.rhs s in
                   ignore (union eg cls rhs_id);
                   incr applied)
                 matches))
         searched;
       rebuild eg;
       let dt = Unix.gettimeofday () -. t_start in
       total := !total +. dt;
       stats :=
         {
           is_index = iter;
           is_nodes = n_nodes eg;
           is_classes = n_classes eg;
           is_seconds = dt;
           is_applied = !applied;
         }
         :: !stats;
       let banned_pending = List.exists (fun st -> st.banned_until >= iter + 1) states in
       if n_nodes eg = nodes_before && n_classes eg = classes_before && not banned_pending
       then begin
         saturated := true;
         raise Exit
       end;
       if n_nodes eg > node_limit then raise Exit
     done
   with Exit -> ());
  { iters = List.rev !stats; saturated = !saturated; total_seconds = !total }

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let extract eg id =
  let id = find eg id in
  let best : (int, int * node) Hashtbl.t = Hashtbl.create 64 in
  let progress = ref true in
  while !progress do
    progress := false;
    Hashtbl.iter
      (fun cid cls ->
        if Union_find.is_canonical eg.uf cid then
          List.iter
            (fun (n : node) ->
              let cost = ref (Some 1) in
              Array.iter
                (fun c ->
                  match (!cost, Hashtbl.find_opt best (find eg c)) with
                  | Some acc, Some (child_cost, _) -> cost := Some (acc + child_cost)
                  | _, None -> cost := None
                  | None, _ -> ())
                n.args;
              match !cost with
              | None -> ()
              | Some total -> (
                match Hashtbl.find_opt best cid with
                | Some (existing, _) when existing <= total -> ()
                | Some _ | None ->
                  Hashtbl.replace best cid (total, n);
                  progress := true))
            cls.nodes)
      eg.classes
  done;
  let rec build cid =
    match Hashtbl.find_opt best (find eg cid) with
    | None -> None
    | Some (_, n) ->
      let args =
        Array.fold_right
          (fun c acc ->
            match acc with
            | None -> None
            | Some rest -> ( match build c with Some t -> Some (t :: rest) | None -> None))
          n.args (Some [])
      in
      (match args with Some args -> Some (T (n.op, args)) | None -> None)
  in
  match Hashtbl.find_opt best id with
  | None -> None
  | Some (cost, _) -> ( match build id with Some t -> Some (t, cost) | None -> None)

(* ------------------------------------------------------------------ *)
(* Invariant audit (testing aid)                                       *)
(* ------------------------------------------------------------------ *)

let node_to_string (n : node) =
  let head = match n.op with Op s -> s | Lit i -> string_of_int i in
  Printf.sprintf "%s(%s)" head
    (String.concat "," (Array.to_list (Array.map string_of_int n.args)))

let audit eg =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Node_tbl.iter
    (fun n cls ->
      if not (Array.for_all (Union_find.is_canonical eg.uf) n.args) then
        report "hashcons key not canonical: %s" (node_to_string n);
      if not (Hashtbl.mem eg.classes (find eg cls)) then
        report "hashcons %s maps to missing class %d" (node_to_string n) cls)
    eg.hashcons;
  (* every class node must re-canonicalize to a hashcons entry in the class *)
  Hashtbl.iter
    (fun id cls ->
      if not (Union_find.is_canonical eg.uf id) then
        report "class table holds non-canonical id %d" id
      else
        List.iter
          (fun n ->
            let cn = canon_node eg n in
            match Node_tbl.find_opt eg.hashcons cn with
            | None -> report "class %d node %s missing from hashcons" id (node_to_string cn)
            | Some owner ->
              if find eg owner <> id then
                report "class %d node %s hashconsed to class %d" id (node_to_string cn)
                  (find eg owner))
          cls.nodes)
    eg.classes;
  (* hashcons entry count must equal deduped canonical nodes *)
  let distinct = Node_tbl.create 256 in
  Hashtbl.iter
    (fun id cls ->
      if Union_find.is_canonical eg.uf id then
        List.iter (fun n -> Node_tbl.replace distinct (canon_node eg n) ()) cls.nodes)
    eg.classes;
  if Node_tbl.length distinct <> Node_tbl.length eg.hashcons then
    report "hashcons has %d entries but classes hold %d distinct nodes"
      (Node_tbl.length eg.hashcons) (Node_tbl.length distinct);
  List.rev !problems

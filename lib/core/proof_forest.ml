type reason = Asserted | Rule of string | Congruence of Symbol.t

type step = { from_id : int; to_id : int; why : reason }

(* Each id has at most one labelled parent edge; [record] re-roots one
   side's tree so the new edge can be added (Nelson-Oppen style). *)
type t = { mutable parent : (int * reason) array; mutable n_edges : int; trail : Trail.t }

let no_parent = (-1, Asserted)

let create ?(trail = Trail.create ()) () =
  { parent = Array.make 64 no_parent; n_edges = 0; trail }

let ensure t id =
  if id >= Array.length t.parent then begin
    let cap = max (2 * Array.length t.parent) (id + 1) in
    let bigger = Array.make cap no_parent in
    Array.blit t.parent 0 bigger 0 (Array.length t.parent);
    t.parent <- bigger
  end

let parent_of t id = if id < Array.length t.parent then t.parent.(id) else no_parent

let rec restore_parent t id edge () =
  let now = t.parent.(id) in
  t.parent.(id) <- edge;
  Trail.Entry (restore_parent t id now)

(* Every parent write goes through here. [ensure] needs no inverse: slots
   it adds hold [no_parent], which is what an unused slot means anyway. *)
let set_parent t id edge =
  ensure t id;
  if Trail.recording t.trail then begin
    let old = t.parent.(id) in
    Trail.push t.trail (fun () -> restore_parent t id old ())
  end;
  t.parent.(id) <- edge

(* Reverse all parent pointers on the path from [id] to its root, making
   [id] the root of its proof tree. *)
let reroot t id =
  let rec collect acc id =
    match parent_of t id with
    | -1, _ -> acc
    | p, why -> collect ((id, p, why) :: acc) p
  in
  let path = collect [] id in
  (* path is root-first; flip each edge *)
  List.iter (fun (child, par, why) -> set_parent t par (child, why)) path;
  if path <> [] then set_parent t id no_parent

let rec drop_edge t () =
  t.n_edges <- t.n_edges - 1;
  Trail.Entry (add_edge t)

and add_edge t () =
  t.n_edges <- t.n_edges + 1;
  Trail.Entry (drop_edge t)

let record t a b why =
  if a <> b then begin
    ensure t a;
    ensure t b;
    reroot t a;
    (* Rerooting flips edges without changing their count, and [a] is a
       root afterwards, so this always adds exactly one edge. *)
    set_parent t a (b, why);
    if Trail.recording t.trail then Trail.push t.trail (fun () -> drop_edge t ());
    t.n_edges <- t.n_edges + 1
  end

let n_edges t = t.n_edges

let path_to_root t id =
  let rec go acc id =
    match parent_of t id with
    | -1, _ -> List.rev ((id, no_parent) :: acc)
    | p, why -> go ((id, (p, why)) :: acc) p
  in
  go [] id

let explain t a b =
  if a = b then Some []
  else begin
    let pa = path_to_root t a and pb = path_to_root t b in
    (* find the last common node of the two root-paths *)
    let nodes_b = List.map fst pb in
    let rec first_common = function
      | [] -> None
      | (n, _) :: rest -> if List.mem n nodes_b then Some n else first_common rest
    in
    match first_common pa with
    | None -> None
    | Some lca ->
      (* steps along a root-path until the lca, in order *)
      let rec until_lca = function
        | (n, (p, why)) :: rest when n <> lca -> { from_id = n; to_id = p; why } :: until_lca rest
        | _ -> []
      in
      let a_to_lca = until_lca pa in
      let b_to_lca = until_lca pb in
      let lca_to_b =
        List.rev_map (fun s -> { from_id = s.to_id; to_id = s.from_id; why = s.why }) b_to_lca
      in
      Some (a_to_lca @ lca_to_b)
  end

let edges_in_class t ~member ~find =
  let root = find member in
  let acc = ref [] in
  Array.iteri
    (fun i (p, why) ->
      if p >= 0 && find i = root then acc := { from_id = i; to_id = p; why } :: !acc)
    t.parent;
  List.rev !acc

let pp_reason fmt = function
  | Asserted -> Format.pp_print_string fmt "asserted"
  | Rule name -> Format.fprintf fmt "rule %s" name
  | Congruence f -> Format.fprintf fmt "congruence of %s" (Symbol.name f)

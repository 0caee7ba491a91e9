(* The cost-based planner's greedy variable ordering, kept verbatim in its
   first, straightforward form: a fresh seen-set per estimate and list
   scans for the remaining variables. [Compile.replan_order] computes the
   same order from per-query precomputed atom terms; the property in
   test_plans checks the two agree on random queries and statistics. *)

module C = Egglog.Compile

let distinct_at (c : C.atom_card) p =
  if p < Array.length c.C.ac_distinct then max 1 c.C.ac_distinct.(p) else 1

(* Estimated number of values the cursor for [v] enumerates in atom [ai]
   given the bound variables: the row count divided by the distinct count
   of every bound or constant column, capped by the distinct count of
   [v]'s own column. *)
let estimate ~(q : C.cquery) ~(cards : C.atom_card array) ~(bound : bool array) ai v =
  let atom = q.C.atoms.(ai) and c = cards.(ai) in
  let cand = ref (max 1 c.C.ac_rows) in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun p arg ->
      match arg with
      | C.A_const _ -> cand := max 1 (!cand / distinct_at c p)
      | C.A_var u when u <> v && bound.(u) && not (Hashtbl.mem seen u) ->
        Hashtbl.add seen u ();
        cand := max 1 (!cand / distinct_at c p)
      | C.A_var _ -> ())
    atom.C.a_args;
  let width = ref !cand in
  (try
     Array.iteri
       (fun p arg ->
         match arg with
         | C.A_var u when u = v ->
           width := distinct_at c p;
           raise Exit
         | C.A_var _ | C.A_const _ -> ())
       atom.C.a_args
   with Exit -> ());
  min !cand !width

(* Repeatedly bind the unordered join variable with the least key
   (cheapest covering atom's estimate, minus its coverage, its index). *)
let replan_order (q : C.cquery) ~(cards : C.atom_card array) : int array =
  let n_vars = q.C.n_vars in
  if Array.length q.C.order <= 1 then q.C.order
  else begin
    let covering = Array.make n_vars [] in
    Array.iteri
      (fun ai (atom : C.atom) ->
        let seen = Hashtbl.create 8 in
        Array.iter
          (function
            | C.A_var v when not (Hashtbl.mem seen v) ->
              Hashtbl.add seen v ();
              covering.(v) <- ai :: covering.(v)
            | C.A_var _ | C.A_const _ -> ())
          atom.C.a_args)
      q.C.atoms;
    let bound = Array.make n_vars false in
    let remaining = ref (Array.to_list q.C.order |> List.sort Stdlib.compare) in
    let order = Array.make (Array.length q.C.order) 0 in
    let next = ref 0 in
    while !remaining <> [] do
      let best = ref None in
      List.iter
        (fun v ->
          let cost =
            List.fold_left
              (fun acc ai -> min acc (estimate ~q ~cards ~bound ai v))
              max_int covering.(v)
          in
          let key = (cost, -List.length covering.(v), v) in
          match !best with
          | Some (bkey, _) when Stdlib.compare bkey key <= 0 -> ()
          | Some _ | None -> best := Some (key, v))
        !remaining;
      let v = match !best with Some (_, v) -> v | None -> assert false in
      order.(!next) <- v;
      incr next;
      bound.(v) <- true;
      remaining := List.filter (fun u -> u <> v) !remaining
    done;
    order
  end

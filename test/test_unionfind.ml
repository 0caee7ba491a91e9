(* Union-find invariants, including the merge log the rebuilder relies on. *)

module U = Union_find

let test_basic () =
  let uf = U.create () in
  let a = U.make_set uf and b = U.make_set uf and c = U.make_set uf in
  Alcotest.(check bool) "fresh distinct" false (U.equiv uf a b);
  ignore (U.union uf a b);
  Alcotest.(check bool) "a~b" true (U.equiv uf a b);
  Alcotest.(check bool) "a!~c" false (U.equiv uf a c);
  ignore (U.union uf b c);
  Alcotest.(check bool) "transitive" true (U.equiv uf a c);
  Alcotest.(check int) "one class" 1 (U.n_classes uf)

let test_union_returns_winner () =
  let uf = U.create () in
  let a = U.make_set uf and b = U.make_set uf in
  let w = U.union uf a b in
  Alcotest.(check bool) "winner canonical" true (U.is_canonical uf w);
  Alcotest.(check int) "find a" w (U.find uf a);
  Alcotest.(check int) "find b" w (U.find uf b);
  Alcotest.(check int) "idempotent union" w (U.union uf a b)

let test_dirty_log () =
  let uf = U.create () in
  let a = U.make_set uf and b = U.make_set uf and c = U.make_set uf in
  Alcotest.(check bool) "clean initially" false (U.has_dirty uf);
  ignore (U.union uf a b);
  ignore (U.union uf a c);
  Alcotest.(check int) "two losers logged" 2 (List.length (U.dirty uf));
  List.iter
    (fun loser -> Alcotest.(check bool) "loser not canonical" false (U.is_canonical uf loser))
    (U.dirty uf);
  U.clear_dirty uf;
  Alcotest.(check bool) "cleared" false (U.has_dirty uf);
  ignore (U.union uf a b);
  Alcotest.(check bool) "no-op union logs nothing" false (U.has_dirty uf)

let test_growth () =
  let uf = U.create () in
  let ids = Array.init 10_000 (fun _ -> U.make_set uf) in
  Alcotest.(check int) "all allocated" 10_000 (U.size uf);
  Array.iteri (fun i id -> Alcotest.(check int) "dense ids" i id) ids;
  for i = 1 to 9_999 do
    ignore (U.union uf ids.(0) ids.(i))
  done;
  Alcotest.(check int) "single class" 1 (U.n_classes uf)

(* Property: union-find equivalence matches a naive partition refinement. *)
let prop_matches_naive =
  QCheck2.Test.make ~name:"union-find matches naive partition" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 19) (int_range 0 19)))
    (fun unions ->
      let uf = Union_find.create () in
      let ids = Array.init 20 (fun _ -> Union_find.make_set uf) in
      let naive = Array.init 20 Fun.id in
      let naive_find i =
        let rec go i = if naive.(i) = i then i else go naive.(i) in
        go i
      in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf ids.(a) ids.(b));
          let ra = naive_find a and rb = naive_find b in
          if ra <> rb then naive.(ra) <- rb)
        unions;
      let ok = ref true in
      for i = 0 to 19 do
        for j = 0 to 19 do
          let uf_eq = Union_find.equiv uf ids.(i) ids.(j) in
          let nv_eq = naive_find i = naive_find j in
          if uf_eq <> nv_eq then ok := false
        done
      done;
      !ok)

let prop_class_count =
  QCheck2.Test.make ~name:"n_classes = n - effective unions" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 14) (int_range 0 14)))
    (fun unions ->
      let uf = Union_find.create () in
      let ids = Array.init 15 (fun _ -> Union_find.make_set uf) in
      let effective = ref 0 in
      List.iter
        (fun (a, b) ->
          if not (Union_find.equiv uf ids.(a) ids.(b)) then incr effective;
          ignore (Union_find.union uf ids.(a) ids.(b)))
        unions;
      Union_find.n_classes uf = 15 - !effective)

(* Property: rolling back a transaction on the trail restores the structure
   exactly — size, class count, dirty log and every id's representative —
   whatever unions, finds (path compression), allocations and dirty-log
   clears ran inside it, including those of a nested transaction that
   committed. Unions made before the transaction and never followed by a
   find leave paths of depth > 1, which finds inside the transaction then
   compress across the transaction's own unions. *)
let state u =
  ( Union_find.size u,
    Union_find.n_classes u,
    Union_find.dirty u,
    List.init (Union_find.size u) (Union_find.find u) )

let prop_trail_rollback =
  let ops =
    QCheck2.Gen.(list_size (int_range 0 30) (triple (int_bound 3) (int_bound 24) (int_bound 24)))
  in
  QCheck2.Test.make ~name:"trail rollback restores the structure exactly" ~count:300
    QCheck2.Gen.(triple ops ops ops)
    (fun (before, outer, nested) ->
      let trail = Trail.create () in
      let fresh trail =
        let uf = Union_find.create ~trail () in
        for _ = 1 to 12 do
          ignore (Union_find.make_set uf)
        done;
        uf
      in
      let apply uf =
        List.iter (fun (op, a, b) ->
            let n = Union_find.size uf in
            match op with
            | 0 -> ignore (Union_find.union uf (a mod n) (b mod n))
            | 1 -> ignore (Union_find.find uf (a mod n))
            | 2 -> ignore (Union_find.make_set uf)
            | _ -> Union_find.clear_dirty uf)
      in
      let uf = fresh trail in
      apply uf before;
      (* the reference replays [before] on its own structure: reading
         [uf] here would compress the paths the transaction must find *)
      let reference =
        let replayed = fresh (Trail.create ()) in
        apply replayed before;
        state replayed
      in
      Trail.begin_txn trail;
      apply uf outer;
      Trail.begin_txn trail;
      apply uf nested;
      Trail.commit trail;
      apply uf outer;
      ignore (Trail.rollback trail);
      state uf = reference)

(* Transactions and scopes interleave on one trail: a scope may outlive
   the transaction that opened it, and a pop may cross transactions opened
   since its push, which may then commit or roll back (and redo the pop).
   A random program of writes, begins, commits, rollbacks, pushes and pops
   runs against a model that holds the state each mark opened on: every
   rollback and pop must give back exactly that state, and the count of
   entries an open scope keeps ([Trail.held]) that it had then. *)
type frame = F_txn of snapshot * frame list | F_scope of snapshot
and snapshot = (int * int * int list * int list) * int

let prop_trail_interleaving =
  let op = QCheck2.Gen.(triple (int_bound 9) (int_bound 24) (int_bound 24)) in
  QCheck2.Test.make ~name:"trail: scopes and transactions interleave exactly" ~count:2000
    QCheck2.Gen.(list_size (int_range 0 60) op)
    (fun ops ->
      let trail = Trail.create () in
      let uf = Union_find.create ~trail () in
      for _ = 1 to 12 do
        ignore (Union_find.make_set uf)
      done;
      let frames = ref [] and ok = ref true in
      (* [state] compresses paths, which records: count the trail after it,
         and check the count before it *)
      let capture () =
        let st = state uf in
        (st, Trail.held trail)
      in
      let expect (st, held) = if Trail.held trail <> held || state uf <> st then ok := false in
      let rec close_txn = function
        | [] -> None
        | F_txn (_, _) :: rest -> Some rest
        | f :: rest -> Option.map (fun rest -> f :: rest) (close_txn rest)
      in
      let rec innermost_txn = function
        | [] -> None
        | F_txn (snap, outer) :: _ -> Some (snap, outer)
        | F_scope _ :: rest -> innermost_txn rest
      in
      let rec pop = function
        | [] -> None
        | F_scope snap :: rest -> Some (snap, rest)
        | f :: rest -> Option.map (fun (snap, rest) -> (snap, f :: rest)) (pop rest)
      in
      List.iter
        (fun (code, a, b) ->
          let n = Union_find.size uf in
          match code with
          | 0 | 1 -> ignore (Union_find.union uf (a mod n) (b mod n))
          | 2 -> ignore (Union_find.find uf (a mod n))
          | 3 -> ignore (Union_find.make_set uf)
          | 4 -> Union_find.clear_dirty uf
          | 5 ->
            frames := F_txn (capture (), !frames) :: !frames;
            Trail.begin_txn trail
          | 6 ->
            frames := F_scope (capture ()) :: !frames;
            Trail.push_scope trail
          | 7 ->
            Option.iter
              (fun rest ->
                Trail.commit trail;
                frames := rest)
              (close_txn !frames)
          | 8 ->
            Option.iter
              (fun (snap, outer) ->
                ignore (Trail.rollback trail);
                expect snap;
                frames := outer)
              (innermost_txn !frames)
          | _ ->
            Option.iter
              (fun (snap, rest) ->
                ignore (Trail.pop_scope trail);
                expect snap;
                frames := rest)
              (pop !frames))
        ops;
      !ok)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_matches_naive; prop_class_count; prop_trail_rollback; prop_trail_interleaving ]
  in
  Alcotest.run "union_find"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "winner" `Quick test_union_returns_winner;
          Alcotest.test_case "dirty log" `Quick test_dirty_log;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
      ("properties", props);
    ]

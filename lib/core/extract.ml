type term = T_app of Symbol.t * term list | T_const of Value.t

let rec term_to_sexp = function
  | T_const (Value.VInt i) -> Sexpr.Int i
  | T_const (Value.VRat r) -> Sexpr.Rational r
  | T_const (Value.VStr s) -> Sexpr.String (Symbol.name s)
  | T_const v -> Sexpr.Atom (Value.to_string v)
  | T_app (f, []) -> Sexpr.List [ Sexpr.Atom (Symbol.name f) ]
  | T_app (f, args) -> Sexpr.List (Sexpr.Atom (Symbol.name f) :: List.map term_to_sexp args)

let pp_term fmt t = Sexpr.pp fmt (term_to_sexp t)

type result = { term : term; cost : int }

(* Best-known construction of each e-class: cost, constructor, arguments. *)
type best = { b_cost : int; b_func : Schema.func; b_key : Value.t array }

let compute_best db =
  let best : (int, best) Hashtbl.t = Hashtbl.create 256 in
  let cost_of_value v =
    match v with
    | Value.VId id -> (
      match Hashtbl.find_opt best id with Some b -> Some b.b_cost | None -> None)
    | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _ | Value.VSet _
    | Value.VVec _ ->
      Some 0
  in
  let progress = ref true in
  while !progress do
    progress := false;
    Database.iter_tables db (fun table ->
        let func = Table.func table in
        if Ty.is_sort func.Schema.ret_ty then
          Table.iter
            (fun key row ->
              match row.Table.value with
              | Value.VId out_id ->
                let rec sum acc i =
                  if i >= Array.length key then Some acc
                  else begin
                    match cost_of_value key.(i) with
                    | None -> None
                    | Some c -> sum (acc + c) (i + 1)
                  end
                in
                (match sum func.Schema.cost 0 with
                 | None -> ()
                 | Some total -> (
                   match Hashtbl.find_opt best out_id with
                   | Some b when b.b_cost <= total -> ()
                   | Some _ | None ->
                     Hashtbl.replace best out_id { b_cost = total; b_func = func; b_key = key };
                     progress := true))
              | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _
              | Value.VSet _ | Value.VVec _ -> ())
            table)
  done;
  best

(* The terms [f] builds for [args], or [None] as soon as one has none. *)
let map_args f args =
  Array.fold_right
    (fun arg acc ->
      match acc with
      | None -> None
      | Some rest -> ( match f arg with Some t -> Some (t :: rest) | None -> None))
    args (Some [])

(* The cheapest term of a value by [best]; [None] when some class on the
   way has no construction. *)
let builder best =
  let rec build v =
    match v with
    | Value.VId id -> (
      match Hashtbl.find_opt best id with
      | None -> None
      | Some b -> (
        match map_args build b.b_key with
        | Some args -> Some (T_app (b.b_func.Schema.name, args))
        | None -> None))
    | other -> Some (T_const other)
  in
  build

let extract db value =
  match Database.canon db value with
  | Value.VId id ->
    let best = compute_best db in
    (match Hashtbl.find_opt best id with
     | None -> None
     | Some b -> (
       match builder best (Value.VId id) with
       | Some term -> Some { term; cost = b.b_cost }
       | None -> None))
  | other -> Some { term = T_const other; cost = 0 }

let candidates db value ~max:max_candidates =
  match Database.canon db value with
  | Value.VId id ->
    let best = compute_best db in
    let build = builder best in
    let acc = ref [] in
    Database.iter_tables db (fun table ->
        let func = Table.func table in
        if Ty.is_sort func.Schema.ret_ty then
          Table.iter
            (fun key row ->
              match Database.canon db row.Table.value with
              | Value.VId out when out = id -> (
                match map_args (fun arg -> build (Database.canon db arg)) key with
                | Some args ->
                  let cost =
                    Array.fold_left
                      (fun acc arg ->
                        match Database.canon db arg with
                        | Value.VId cid -> (
                          match Hashtbl.find_opt best cid with
                          | Some b -> acc + b.b_cost
                          | None -> acc)
                        | _ -> acc)
                      func.Schema.cost key
                  in
                  acc := (cost, T_app (func.Schema.name, args)) :: !acc
                | None -> ())
              | _ -> ())
            table);
    let sorted = List.sort (fun (c1, _) (c2, _) -> compare c1 c2) !acc in
    let rec dedupe seen = function
      | [] -> []
      | (_, t) :: rest ->
        if List.mem t seen then dedupe seen rest else t :: dedupe (t :: seen) rest
    in
    let all = dedupe [] sorted in
    let rec take n = function [] -> [] | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs in
    take max_candidates all
  | other -> [ T_const other ]

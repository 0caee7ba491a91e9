type t =
  | VUnit
  | VBool of bool
  | VInt of int
  | VRat of Rat.t
  | VStr of Symbol.t
  | VId of int
  | VSet of t list
  | VVec of t list

let rank = function
  | VUnit -> 0
  | VBool _ -> 1
  | VInt _ -> 2
  | VRat _ -> 3
  | VStr _ -> 4
  | VId _ -> 5
  | VSet _ -> 6
  | VVec _ -> 7

let rec compare a b =
  match (a, b) with
  | VUnit, VUnit -> 0
  | VBool x, VBool y -> Bool.compare x y
  | VInt x, VInt y -> Int.compare x y
  | VRat x, VRat y -> Rat.compare x y
  | VStr x, VStr y -> Symbol.compare x y
  | VId x, VId y -> Int.compare x y
  | VSet x, VSet y -> List.compare compare x y
  | VVec x, VVec y -> List.compare compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let rec hash = function
  | VUnit -> 17
  | VBool b -> if b then 31 else 37
  | VInt i -> i * 0x9e3779b1
  | VRat r -> Rat.hash r
  | VStr s -> Symbol.hash s lxor 0x55555555
  | VId i -> (i * 0x2545f491) lxor 0x0f0f0f0f
  | VSet xs -> List.fold_left (fun acc x -> (acc * 486187739) lxor hash x) 3 xs
  | VVec xs -> List.fold_left (fun acc x -> (acc * 100000007) lxor hash x) 11 xs

let mk_set xs = VSet (List.sort_uniq compare xs)

(* Deterministic modeled size. The constants approximate the OCaml runtime
   representation (words on 64-bit) but the only property that matters is
   that the model is a pure function of the value — independent of the
   allocator, sharing, or GC state — so byte budgets trip at the same
   iteration on every run. *)
let rec modeled_bytes = function
  | VUnit | VBool _ | VInt _ | VId _ -> 8
  | VRat _ -> 32
  | VStr s -> 24 + String.length (Symbol.name s)
  | VSet xs | VVec xs ->
    List.fold_left (fun acc x -> acc + 16 + modeled_bytes x) 24 xs

let rec type_of ~sort_of_id = function
  | VUnit -> Ty.Unit
  | VBool _ -> Ty.Bool
  | VInt _ -> Ty.Int
  | VRat _ -> Ty.Rational
  | VStr _ -> Ty.String
  | VId i -> sort_of_id i
  | VSet [] -> Ty.Set Ty.Unit
  | VSet (x :: _) -> Ty.Set (type_of ~sort_of_id x)
  | VVec [] -> Ty.Vec Ty.Unit
  | VVec (x :: _) -> Ty.Vec (type_of ~sort_of_id x)

let rec pp fmt = function
  | VUnit -> Format.pp_print_string fmt "()"
  | VBool b -> Format.pp_print_bool fmt b
  | VInt i -> Format.pp_print_int fmt i
  | VRat r -> Rat.pp fmt r
  | VStr s -> Format.fprintf fmt "%S" (Symbol.name s)
  | VId i -> Format.fprintf fmt "#%d" i
  | VSet xs ->
    Format.fprintf fmt "{@[<hov 1>%a@]}" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp) xs
  | VVec xs ->
    Format.fprintf fmt "[@[<hov 1>%a@]]" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp) xs

let to_string v = Format.asprintf "%a" pp v

let hash_key (key : t array) =
  let h = ref (Array.length key) in
  Array.iter (fun v -> h := (!h * 31) lxor hash v) key;
  !h land max_int

let equal_key (a : t array) (b : t array) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (equal a.(i) b.(i) && go (i + 1)) in
  go 0

module Key_tbl = Hashtbl.Make (struct
  type nonrec t = t array

  let equal = equal_key
  let hash = hash_key
end)

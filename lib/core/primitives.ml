type prim = {
  pname : string;
  typer : args:Ty.t option list -> ret:Ty.t option -> Ty.t option;
  impl : Value.t array -> Value.t option;
}

let registry : (string, prim) Hashtbl.t = Hashtbl.create 64
let register p = Hashtbl.replace registry p.pname p
let find name = Hashtbl.find_opt registry name

(* Downward expectation propagation for container-polymorphic primitives:
   without this, (set-insert (set-empty) x) cannot type its inner call. *)
let arg_hints name ~ret ~nargs =
  let elem = match ret with Some (Ty.Set t) -> Some t | _ -> None in
  let velem = match ret with Some (Ty.Vec t) -> Some t | _ -> None in
  match (name, nargs) with
  | ("set-insert" | "set-remove"), 2 -> [ ret; elem ]
  | ("set-union" | "set-intersect" | "set-diff"), 2 -> [ ret; ret ]
  | "set-singleton", 1 -> [ elem ]
  | "vec-push", 2 -> [ ret; velem ]
  | "vec-append", 2 -> [ ret; ret ]
  | "vec-of", 1 -> [ velem ]
  | ("min" | "max" | "+" | "-" | "*" | "/"), 2 -> [ ret; ret ]
  | "-", 1 | "abs", 1 -> [ ret ]
  | _ -> []

(* ---- typer helpers ---- *)

(* Numeric: all arguments share one numeric type, result is the same. *)
let numeric_typer ~arity ~args ~ret =
  if List.length args <> arity then None
  else begin
    let known = List.filter_map Fun.id args in
    let candidates = (match ret with Some t -> t :: known | None -> known) in
    match candidates with
    | [] -> None
    | t :: rest ->
      if List.for_all (Ty.equal t) rest && (Ty.equal t Ty.Int || Ty.equal t Ty.Rational)
         && List.length known = arity
      then Some t
      else None
  end

(* Numeric comparison guard: two equal numeric args, Unit result. *)
let cmp_typer ~args ~ret:_ =
  match args with
  | [ Some a; Some b ] when Ty.equal a b && (Ty.equal a Ty.Int || Ty.equal a Ty.Rational) ->
    Some Ty.Unit
  | _ -> None

let fixed tys result ~args ~ret:_ =
  if List.length args = List.length tys
     && List.for_all2 (fun got want -> match got with Some t -> Ty.equal t want | None -> false) args tys
  then Some result
  else None

(* ---- impl helpers ---- *)

let int2 f = function
  | [| Value.VInt a; Value.VInt b |] -> f a b
  | _ -> None

let rat2 f = function
  | [| Value.VRat a; Value.VRat b |] -> f a b
  | _ -> None

let num2 ~int ~rat args =
  match int2 int args with Some _ as r -> r | None -> rat2 rat args

let guard b = if b then Some Value.VUnit else None

(* ---- arithmetic ---- *)

let () =
  register
    {
      pname = "+";
      typer = (fun ~args ~ret -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        num2
          ~int:(fun a b -> Some (Value.VInt (a + b)))
          ~rat:(fun a b -> Some (Value.VRat (Rat.add a b)));
    };
  register
    {
      pname = "*";
      typer = (fun ~args ~ret -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        num2
          ~int:(fun a b -> Some (Value.VInt (a * b)))
          ~rat:(fun a b -> Some (Value.VRat (Rat.mul a b)));
    };
  register
    {
      pname = "-";
      typer =
        (fun ~args ~ret ->
          match List.length args with
          | 1 -> numeric_typer ~arity:1 ~args ~ret
          | _ -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        (function
        | [| Value.VInt a |] -> Some (Value.VInt (-a))
        | [| Value.VRat a |] -> Some (Value.VRat (Rat.neg a))
        | [| Value.VInt a; Value.VInt b |] -> Some (Value.VInt (a - b))
        | [| Value.VRat a; Value.VRat b |] -> Some (Value.VRat (Rat.sub a b))
        | _ -> None);
    };
  register
    {
      pname = "/";
      typer = (fun ~args ~ret -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        num2
          ~int:(fun a b -> if b = 0 then None else Some (Value.VInt (a / b)))
          ~rat:(fun a b -> if Rat.sign b = 0 then None else Some (Value.VRat (Rat.div a b)));
    };
  register
    {
      pname = "%";
      typer = (fun ~args ~ret -> fixed [ Ty.Int; Ty.Int ] Ty.Int ~args ~ret);
      impl = int2 (fun a b -> if b = 0 then None else Some (Value.VInt (a mod b)));
    };
  register
    {
      pname = "<<";
      typer = (fun ~args ~ret -> fixed [ Ty.Int; Ty.Int ] Ty.Int ~args ~ret);
      impl = int2 (fun a b -> if b < 0 || b > 62 then None else Some (Value.VInt (a lsl b)));
    };
  register
    {
      pname = ">>";
      typer = (fun ~args ~ret -> fixed [ Ty.Int; Ty.Int ] Ty.Int ~args ~ret);
      impl = int2 (fun a b -> if b < 0 || b > 62 then None else Some (Value.VInt (a asr b)));
    };
  register
    {
      pname = "min";
      typer = (fun ~args ~ret -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        num2
          ~int:(fun a b -> Some (Value.VInt (min a b)))
          ~rat:(fun a b -> Some (Value.VRat (Rat.min a b)));
    };
  register
    {
      pname = "max";
      typer = (fun ~args ~ret -> numeric_typer ~arity:2 ~args ~ret);
      impl =
        num2
          ~int:(fun a b -> Some (Value.VInt (max a b)))
          ~rat:(fun a b -> Some (Value.VRat (Rat.max a b)));
    };
  register
    {
      pname = "abs";
      typer = (fun ~args ~ret -> numeric_typer ~arity:1 ~args ~ret);
      impl =
        (function
        | [| Value.VInt a |] -> Some (Value.VInt (abs a))
        | [| Value.VRat a |] -> Some (Value.VRat (Rat.abs a))
        | _ -> None);
    };
  register
    {
      pname = "to-rat";
      typer = (fun ~args ~ret -> fixed [ Ty.Int ] Ty.Rational ~args ~ret);
      impl = (function [| Value.VInt a |] -> Some (Value.VRat (Rat.of_int a)) | _ -> None);
    }

(* ---- comparison guards ---- *)

let () =
  let cmp name test =
    register
      {
        pname = name;
        typer = cmp_typer;
        impl =
          (function
          | [| Value.VInt a; Value.VInt b |] -> guard (test (Int.compare a b))
          | [| Value.VRat a; Value.VRat b |] -> guard (test (Rat.compare a b))
          | _ -> None);
      }
  in
  cmp "<" (fun c -> c < 0);
  cmp "<=" (fun c -> c <= 0);
  cmp ">" (fun c -> c > 0);
  cmp ">=" (fun c -> c >= 0);
  register
    {
      pname = "!=";
      typer =
        (fun ~args ~ret:_ ->
          match args with [ Some a; Some b ] when Ty.equal a b -> Some Ty.Unit | _ -> None);
      impl =
        (function [| a; b |] -> guard (not (Value.equal a b)) | _ -> None);
    }

(* ---- booleans ---- *)

let () =
  let bool2 name f =
    register
      {
        pname = name;
        typer = (fun ~args ~ret -> fixed [ Ty.Bool; Ty.Bool ] Ty.Bool ~args ~ret);
        impl =
          (function
          | [| Value.VBool a; Value.VBool b |] -> Some (Value.VBool (f a b))
          | _ -> None);
      }
  in
  bool2 "and" ( && );
  bool2 "or" ( || );
  register
    {
      pname = "not";
      typer = (fun ~args ~ret -> fixed [ Ty.Bool ] Ty.Bool ~args ~ret);
      impl = (function [| Value.VBool a |] -> Some (Value.VBool (not a)) | _ -> None);
    }

(* ---- strings ---- *)

let () =
  register
    {
      pname = "str-cat";
      typer = (fun ~args ~ret -> fixed [ Ty.String; Ty.String ] Ty.String ~args ~ret);
      impl =
        (function
        | [| Value.VStr a; Value.VStr b |] ->
          Some (Value.VStr (Symbol.intern (Symbol.name a ^ Symbol.name b)))
        | _ -> None);
    }

(* ---- sets ---- *)

let set_elem_ty = function Some (Ty.Set t) -> Some t | _ -> None

let () =
  register
    {
      pname = "set-empty";
      typer =
        (fun ~args ~ret ->
          match (args, ret) with [], Some (Ty.Set _ as t) -> Some t | _ -> None);
      impl = (function [||] -> Some (Value.VSet []) | _ -> None);
    };
  register
    {
      pname = "set-singleton";
      typer =
        (fun ~args ~ret ->
          match args with
          | [ Some t ] -> Some (Ty.Set t)
          | [ None ] -> (match set_elem_ty ret with Some _ -> ret | None -> None)
          | _ -> None);
      impl = (function [| x |] -> Some (Value.mk_set [ x ]) | _ -> None);
    };
  register
    {
      pname = "set-insert";
      typer =
        (fun ~args ~ret ->
          match args with
          | [ Some (Ty.Set t); Some u ] when Ty.equal t u -> Some (Ty.Set t)
          | [ Some (Ty.Set t); None ] -> Some (Ty.Set t)
          | [ None; Some t ] -> (
            match ret with Some (Ty.Set u) when Ty.equal t u -> ret | _ -> None)
          | _ -> None);
      impl =
        (function
        | [| Value.VSet xs; x |] -> Some (Value.mk_set (x :: xs))
        | _ -> None);
    };
  let setop name f =
    register
      {
        pname = name;
        typer =
          (fun ~args ~ret ->
            match args with
            | [ Some (Ty.Set t); Some (Ty.Set u) ] when Ty.equal t u -> Some (Ty.Set t)
            | [ Some (Ty.Set t); None ] | [ None; Some (Ty.Set t) ] -> Some (Ty.Set t)
            | [ None; None ] -> (match ret with Some (Ty.Set _) -> ret | _ -> None)
            | _ -> None);
        impl =
          (function
          | [| Value.VSet xs; Value.VSet ys |] -> Some (Value.mk_set (f xs ys))
          | _ -> None);
      }
  in
  setop "set-union" (fun xs ys -> xs @ ys);
  setop "set-intersect" (fun xs ys -> List.filter (fun x -> List.exists (Value.equal x) ys) xs);
  setop "set-diff" (fun xs ys -> List.filter (fun x -> not (List.exists (Value.equal x) ys)) xs);
  register
    {
      pname = "set-remove";
      typer =
        (fun ~args ~ret:_ ->
          match args with
          | [ Some (Ty.Set t); Some u ] when Ty.equal t u -> Some (Ty.Set t)
          | [ Some (Ty.Set t); None ] -> Some (Ty.Set t)
          | _ -> None);
      impl =
        (function
        | [| Value.VSet xs; x |] ->
          Some (Value.VSet (List.filter (fun y -> not (Value.equal x y)) xs))
        | _ -> None);
    };
  let member name want =
    register
      {
        pname = name;
        typer =
          (fun ~args ~ret:_ ->
            match args with
            | [ Some (Ty.Set t); Some u ] when Ty.equal t u -> Some Ty.Unit
            | [ Some (Ty.Set _); None ] | [ None; Some _ ] -> None
            | _ -> None);
        impl =
          (function
          | [| Value.VSet xs; x |] -> guard (List.exists (Value.equal x) xs = want)
          | _ -> None);
      }
  in
  member "set-contains" true;
  member "set-not-contains" false;
  register
    {
      pname = "set-length";
      typer =
        (fun ~args ~ret:_ ->
          match args with [ Some (Ty.Set _) ] -> Some Ty.Int | _ -> None);
      impl = (function [| Value.VSet xs |] -> Some (Value.VInt (List.length xs)) | _ -> None);
    }

(* ---- vecs ---- *)

let vec_elem_ty = function Some (Ty.Vec t) -> Some t | _ -> None

let () =
  register
    {
      pname = "vec-empty";
      typer =
        (fun ~args ~ret ->
          match (args, ret) with [], Some (Ty.Vec _ as t) -> Some t | _ -> None);
      impl = (function [||] -> Some (Value.VVec []) | _ -> None);
    };
  register
    {
      pname = "vec-of";
      typer =
        (fun ~args ~ret ->
          match args with
          | [ Some t ] -> Some (Ty.Vec t)
          | [ None ] -> (match vec_elem_ty ret with Some _ -> ret | None -> None)
          | _ -> None);
      impl = (function [| x |] -> Some (Value.VVec [ x ]) | _ -> None);
    };
  register
    {
      pname = "vec-push";
      typer =
        (fun ~args ~ret ->
          match args with
          | [ Some (Ty.Vec t); Some u ] when Ty.equal t u -> Some (Ty.Vec t)
          | [ Some (Ty.Vec t); None ] -> Some (Ty.Vec t)
          | [ None; Some t ] -> (
            match ret with Some (Ty.Vec u) when Ty.equal t u -> ret | _ -> None)
          | _ -> None);
      impl =
        (function [| Value.VVec xs; x |] -> Some (Value.VVec (xs @ [ x ])) | _ -> None);
    };
  register
    {
      pname = "vec-append";
      typer =
        (fun ~args ~ret ->
          match args with
          | [ Some (Ty.Vec t); Some (Ty.Vec u) ] when Ty.equal t u -> Some (Ty.Vec t)
          | [ Some (Ty.Vec t); None ] | [ None; Some (Ty.Vec t) ] -> Some (Ty.Vec t)
          | [ None; None ] -> (match ret with Some (Ty.Vec _) -> ret | _ -> None)
          | _ -> None);
      impl =
        (function
        | [| Value.VVec xs; Value.VVec ys |] -> Some (Value.VVec (xs @ ys))
        | _ -> None);
    };
  register
    {
      pname = "vec-get";
      typer =
        (fun ~args ~ret:_ ->
          match args with [ Some (Ty.Vec t); Some Ty.Int ] -> Some t | _ -> None);
      impl =
        (function
        | [| Value.VVec xs; Value.VInt i |] -> List.nth_opt xs i
        | _ -> None);
    };
  register
    {
      pname = "vec-length";
      typer =
        (fun ~args ~ret:_ ->
          match args with [ Some (Ty.Vec _) ] -> Some Ty.Int | _ -> None);
      impl = (function [| Value.VVec xs |] -> Some (Value.VInt (List.length xs)) | _ -> None);
    };
  let vec_member name want =
    register
      {
        pname = name;
        typer =
          (fun ~args ~ret:_ ->
            match args with
            | [ Some (Ty.Vec t); Some u ] when Ty.equal t u -> Some Ty.Unit
            | _ -> None);
        impl =
          (function
          | [| Value.VVec xs; x |] -> guard (List.exists (Value.equal x) xs = want)
          | _ -> None);
      }
  in
  vec_member "vec-contains" true;
  vec_member "vec-not-contains" false

(* ---- more strings ---- *)

let () =
  register
    {
      pname = "str-length";
      typer = (fun ~args ~ret -> fixed [ Ty.String ] Ty.Int ~args ~ret);
      impl =
        (function
        | [| Value.VStr s |] -> Some (Value.VInt (String.length (Symbol.name s)))
        | _ -> None);
    };
  register
    {
      pname = "to-string";
      typer =
        (fun ~args ~ret:_ ->
          match args with
          | [ Some (Ty.Int | Ty.Rational | Ty.Bool) ] -> Some Ty.String
          | _ -> None);
      impl =
        (function
        | [| Value.VInt i |] -> Some (Value.VStr (Symbol.intern (string_of_int i)))
        | [| Value.VRat r |] -> Some (Value.VStr (Symbol.intern (Rat.to_string r)))
        | [| Value.VBool b |] -> Some (Value.VStr (Symbol.intern (string_of_bool b)))
        | _ -> None);
    };
  register
    {
      pname = "str-lt";
      typer = (fun ~args ~ret -> fixed [ Ty.String; Ty.String ] Ty.Unit ~args ~ret);
      impl =
        (function
        | [| Value.VStr a; Value.VStr b |] ->
          guard (String.compare (Symbol.name a) (Symbol.name b) < 0)
        | _ -> None);
    }

(* A linear points-to fingerprint: for each variable, the smallest
   allocation site in its pointee class and the number of sites in that
   class, or [none] when the variable points nowhere. Sites are grouped
   once per class, so time and memory stay linear in variables plus sites
   however large the classes grow; comparing per-variable sorted site lists
   instead costs variables times class size. *)

module P = Pointsto

type entry = { min_site : int; n_sites : int }
type t = entry array

let none = { min_site = -1; n_sites = 0 }

(* [class_of_site s] and [pointee v] name classes by any hashable key. *)
let build ~n_vars ~n_sites ~class_of_site ~pointee : t =
  let classes = Hashtbl.create 1024 in
  for s = n_sites - 1 downto 0 do
    match class_of_site s with
    | None -> ()
    | Some c ->
      let n = match Hashtbl.find_opt classes c with Some e -> e.n_sites | None -> 0 in
      Hashtbl.replace classes c { min_site = s; n_sites = n + 1 }
  done;
  Array.init n_vars (fun v ->
      match pointee v with
      | None -> none
      | Some c -> Option.value (Hashtbl.find_opt classes c) ~default:none)

let of_reference (p : P.Ir.program) (st : P.Reference.t) =
  let root n = Union_find.find st.P.Reference.uf n in
  build ~n_vars:p.P.Ir.n_vars ~n_sites:p.P.Ir.n_sites
    ~class_of_site:(fun s -> Some (root (p.P.Ir.n_vars + s)))
    ~pointee:(fun v -> Option.map root (P.Reference.node_info st v).P.Reference.tgt)

let of_engine (p : P.Ir.program) eng =
  let canon = Egglog.Database.canon (Egglog.Engine.database eng) in
  build ~n_vars:p.P.Ir.n_vars ~n_sites:p.P.Ir.n_sites
    ~class_of_site:(fun s -> Option.map canon (P.Egglog_enc.site_class eng s))
    ~pointee:(fun v -> Option.map canon (P.Egglog_enc.pointee_class eng v))

(* Variables whose entries differ; [0] means the analyses agree. *)
let mismatches (a : t) (b : t) =
  if Array.length a <> Array.length b then max (Array.length a) (Array.length b)
  else begin
    let n = ref 0 in
    Array.iteri (fun i e -> if e <> b.(i) then incr n) a;
    !n
  end

(* Steensgaard in egglog (§6.1). [vpt] maps each pointer variable to the
   equivalence class of allocations it points to; its functional-dependency
   repair *unifies* the violating ids — exactly the paper's point: declare
   that, and the engine's canonicalization does all the unification and
   congruence.

   Rules query the vpt/pts tables (so canonicalized rows re-fire rules
   and semi-naïve evaluation has real work to skip), mirroring how the
   paper's artifact reimplements the cclyzer++ rules. *)

let program_text =
  {|
  (sort Alloc)
  (function siteAlloc (i64) Alloc)
  (function fieldAlloc (Alloc i64) Alloc)
  (function vpt (i64) Alloc)   ;; pointer variable -> pointee class
  (function pts (Alloc) Alloc) ;; allocation class -> contents class

  (relation allocI (i64 i64))
  (relation copyI (i64 i64))
  (relation storeI (i64 i64))
  (relation loadI (i64 i64))
  (relation fieldI (i64 i64 i64))

  ;; Pointee classes come into existence where allocations flow (the rules
  ;; are gated on the queried side being defined, so definedness spreads
  ;; hop by hop through the constraint graph — the fixpoint matches the
  ;; reference because unconstrained nodes can never contain a site).
  (rule ((allocI p s)) ((union (vpt p) (siteAlloc s))))
  ;; copy unifies both pointees (Steensgaard is flow-insensitive)
  (rule ((copyI d s) (= a (vpt s))) ((union (vpt d) a)))
  (rule ((copyI d s) (= a (vpt d))) ((union (vpt s) a)))
  (rule ((storeI p q) (= a (vpt p))) ((union (pts a) (vpt q))))
  (rule ((storeI p q) (= b (vpt q))) ((union (pts (vpt p)) b)))
  (rule ((loadI d p) (= a (vpt p))) ((union (vpt d) (pts a))))
  (rule ((loadI d p) (= a (vpt d))) ((union (pts (vpt p)) a)))
  (rule ((fieldI d p f) (= a (vpt p))) ((union (vpt d) (fieldAlloc a f))))
  (rule ((fieldI d p f) (= a (vpt d))) ((union (fieldAlloc (vpt p) f) a)))
  |}

let load ?(seminaive = true) (p : Ir.program) =
  let eng = Egglog.Engine.create ~seminaive () in
  ignore (Egglog.run_string eng program_text);
  let i n = Egglog.Value.VInt n in
  Array.iter
    (fun inst ->
      match inst with
      | Ir.Alloc (v, s) -> Egglog.Engine.set_fact eng "allocI" [ i v; i s ] Egglog.Value.VUnit
      | Ir.Copy (d, s) -> Egglog.Engine.set_fact eng "copyI" [ i d; i s ] Egglog.Value.VUnit
      | Ir.Store (pp, q) -> Egglog.Engine.set_fact eng "storeI" [ i pp; i q ] Egglog.Value.VUnit
      | Ir.Load (d, pp) -> Egglog.Engine.set_fact eng "loadI" [ i d; i pp ] Egglog.Value.VUnit
      | Ir.Field (d, pp, f) ->
        Egglog.Engine.set_fact eng "fieldI" [ i d; i pp; i f ] Egglog.Value.VUnit)
    p.Ir.insts;
  eng

let analyze ?seminaive (p : Ir.program) =
  Egglog.Telemetry.span "pointsto.egglog.run" @@ fun () ->
  let eng = load ?seminaive p in
  let report = Egglog.Engine.run_iterations eng 1000 in
  (eng, report)

(* The pointee class of a variable. *)
let pointee_class eng v = Egglog.Engine.lookup_fact eng "vpt" [ Egglog.Value.VInt v ]

(* The allocation class of a site. *)
let site_class eng s = Egglog.Engine.lookup_fact eng "siteAlloc" [ Egglog.Value.VInt s ]

(* Per-variable site sets, for comparison with {!Reference}. *)
let var_sites (p : Ir.program) eng : int list array =
  let db = Egglog.Engine.database eng in
  let canon v = Egglog.Database.canon db v in
  let by_class : (Egglog.Value.t, int list) Hashtbl.t = Hashtbl.create 64 in
  for s = 0 to p.Ir.n_sites - 1 do
    match site_class eng s with
    | Some loc ->
      let key = canon loc in
      Hashtbl.replace by_class key (s :: (try Hashtbl.find by_class key with Not_found -> []))
    | None -> ()
  done;
  Array.init p.Ir.n_vars (fun v ->
      match pointee_class eng v with
      | None -> []
      | Some cls -> (
        match Hashtbl.find_opt by_class (canon cls) with
        | Some sites -> List.sort compare sites
        | None -> []))

let vpt_size (p : Ir.program) eng =
  let n = ref 0 in
  for v = 0 to p.Ir.n_vars - 1 do
    match pointee_class eng v with Some _ -> incr n | None -> ()
  done;
  !n

(* Steensgaard in egglog (§6.1). [vpt] maps each pointer variable to the
   equivalence class of allocations it points to; its functional-dependency
   repair *unifies* the violating ids — exactly the paper's point: declare
   that, and the engine's canonicalization does all the unification and
   congruence.

   This is the measured encoding: rules query the vpt/pts tables (so
   canonicalized rows re-fire rules and semi-naïve evaluation has real
   work to skip), mirroring how the paper's artifact reimplements the
   cclyzer++ rules. *)

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

(* The even more direct encoding where all flow happens through
   get-or-default in actions and a single rebuild does the whole analysis.
   Selected by [load ~direct:true]. *)
let direct_program_text =
  {|
  (sort Loc)
  (function varLoc (i64) Loc)
  (function siteLoc (i64) Loc)
  (function target (Loc) Loc)
  (function fieldOf (Loc i64) Loc)

  (relation allocI (i64 i64))
  (relation copyI (i64 i64))
  (relation storeI (i64 i64))
  (relation loadI (i64 i64))
  (relation fieldI (i64 i64 i64))

  (rule ((allocI v s)) ((union (target (varLoc v)) (siteLoc s))))
  (rule ((copyI d s)) ((union (target (varLoc d)) (target (varLoc s)))))
  (rule ((storeI p q)) ((union (target (target (varLoc p))) (target (varLoc q)))))
  (rule ((loadI d p)) ((union (target (varLoc d)) (target (target (varLoc p))))))
  (rule ((fieldI d p f)) ((union (target (varLoc d)) (fieldOf (target (varLoc p)) f))))
  |}

let load ?(seminaive = true) ?jobs ?(direct = false) (p : Ir.program) =
  let eng = Egglog.Engine.create ~seminaive ?jobs () in
  ignore (Egglog.run_string eng (if direct then direct_program_text else program_text));
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

let analyze ?seminaive ?jobs ?direct (p : Ir.program) =
  Egglog.Telemetry.span "pointsto.egglog.run" @@ fun () ->
  let eng = load ?seminaive ?jobs ?direct p in
  let report = Egglog.Engine.run_iterations eng 1000 in
  (eng, report)

let try_lookup eng name args =
  try Egglog.Engine.lookup_fact eng name args with Egglog.Engine.Egglog_error _ -> None

(* The pointee class of a variable, under either encoding. *)
let pointee_class eng v =
  match try_lookup eng "vpt" [ Egglog.Value.VInt v ] with
  | Some cls -> Some cls
  | None -> (
    (* direct encoding: target (varLoc v) *)
    match try_lookup eng "varLoc" [ Egglog.Value.VInt v ] with
    | None -> None
    | Some loc -> try_lookup eng "target" [ loc ])

let site_class eng s =
  match try_lookup eng "siteAlloc" [ Egglog.Value.VInt s ] with
  | Some cls -> Some cls
  | None -> try_lookup eng "siteLoc" [ Egglog.Value.VInt s ]

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

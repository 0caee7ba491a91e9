(* Fig. 8: Steensgaard points-to — egglog vs egglogNI vs three Soufflé-style
   encodings (eqrel / cclyzer++ / patched), on growing synthetic programs
   standing in for the postgresql-9.5.2 modules, with the paper's 20 s
   timeout.

   Expected shape (paper): eqrel times out on all but the smallest inputs;
   patched is sound but slow (egglog ~4.96x faster); cclyzer++ is faster
   but unsound (reports different results) and still times out on the
   largest inputs; egglog beats egglogNI (~1.59x). *)

module P = Pointsto

let timeout_s = 20.0

type cell = Time of float | Timeout_cell

let pp_cell = function
  | Time t -> Printf.sprintf "%8.3fs" t
  | Timeout_cell -> "       T/O"

let checksum sites =
  Array.fold_left
    (fun acc l -> List.fold_left (fun acc s -> (acc * 31) lxor (s + 1) land 0xFFFFFF) (acc * 7) l)
    17 sites

let run_egglog ~seminaive p =
  let t0 = Egglog.Telemetry.now () in
  let eng, _report = P.Egglog_enc.analyze ~seminaive p in
  let dt = Egglog.Telemetry.now () -. t0 in
  if dt > timeout_s then (Timeout_cell, None)
  else (Time dt, Some (checksum (P.Egglog_enc.var_sites p eng)))

let run_datalog flavor p =
  let r = P.Datalog_enc.analyze flavor ~timeout_s p in
  match r.P.Datalog_enc.outcome with
  | Minidatalog.Timeout -> (Timeout_cell, None)
  | Minidatalog.Fixpoint _ -> (Time r.P.Datalog_enc.seconds, Some (checksum (P.Datalog_enc.var_sites r)))

let geo_mean = function
  | [] -> nan
  | ratios ->
    exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios /. float_of_int (List.length ratios))

let run ?sizes ?ni_sizes ~full () =
  Printf.printf "\n=== Fig. 8: Steensgaard points-to (timeout %.0fs) ===\n%!" timeout_s;
  let sizes =
    match sizes with
    | Some s -> s
    | None -> if full then [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ] else [ 4; 8; 16; 32; 64; 128 ]
  in
  Printf.printf "%6s %7s  %10s %10s %10s %10s %10s  %s\n" "size" "insts" "egglog" "egglogNI"
    "eqrel" "cclyzer++" "patched" "result";
  let speedups_patched = ref [] and speedups_cc = ref [] in
  List.iter
    (fun size ->
      let p = P.Progen.generate ~size ~seed:1 () in
      let ref_sum = checksum (P.Reference.var_sites p (P.Reference.analyze p)) in
      let sn = run_egglog ~seminaive:true p in
      let ni = run_egglog ~seminaive:false p in
      let eq = run_datalog P.Datalog_enc.Eqrel p in
      let cc = run_datalog P.Datalog_enc.Cclyzer p in
      let pa = run_datalog P.Datalog_enc.Patched p in
      let verdict (label, (_, sum)) =
        match sum with
        | None -> ""
        | Some s -> if s = ref_sum then "" else Printf.sprintf "%s:UNSOUND " label
      in
      let systems = [ ("egglog", sn); ("NI", ni); ("eqrel", eq); ("cclyzer", cc); ("patched", pa) ] in
      let result = String.concat "" (List.map verdict systems) in
      let result = if result = "" then "all-finishers-sound-except-noted" else result in
      Printf.printf "%6d %7d  %s %s %s %s %s  %s\n%!" size
        (Array.length p.P.Ir.insts)
        (pp_cell (fst sn)) (pp_cell (fst ni)) (pp_cell (fst eq)) (pp_cell (fst cc))
        (pp_cell (fst pa)) result;
      (match (fst sn, fst pa) with
       | Time a, Time b when a > 0.0005 -> speedups_patched := (b /. a) :: !speedups_patched
       | _ -> ());
      match (fst sn, fst cc) with
      | Time a, Time b when a > 0.0005 -> speedups_cc := (b /. a) :: !speedups_cc
      | _ -> ())
    sizes;
  Printf.printf "\ngeomean speedup of egglog over patched : %6.2fx (paper: 4.96x, not counting timeouts)\n"
    (geo_mean !speedups_patched);
  Printf.printf "geomean speedup of egglog over cclyzer++: %6.2fx (paper: 1.94x)\n"
    (geo_mean !speedups_cc);
  (* The egglog-vs-egglogNI comparison needs sizes where the engines do
     real work; the Souffle baselines cannot reach them, so run the two
     egglog variants alone at larger scale. *)
  let ni_sizes =
    match ni_sizes with
    | Some s -> s
    | None -> if full then [ 1000; 3000; 10000 ] else [ 1000; 3000 ]
  in
  let ni_speedups =
    List.filter_map
      (fun size ->
        let p = P.Progen.generate ~size ~seed:1 () in
        match (run_egglog ~seminaive:true p, run_egglog ~seminaive:false p) with
        | (Time a, _), (Time b, _) ->
          Printf.printf "%6d %7d  egglog %.3fs vs egglogNI %.3fs\n" size
            (Array.length p.P.Ir.insts) a b;
          Some (b /. a)
        | _ -> None)
      ni_sizes
  in
  Printf.printf "geomean speedup of egglog over egglogNI : %6.2fx (paper: 1.59x)\n%!"
    (geo_mean ni_speedups)

(* CI smoke: two tiny sizes plus one NI comparison point; exercises every
   printing path (table, soundness verdicts, speedups) in well under a second. *)
let run_smoke () = run ~sizes:[ 4; 8 ] ~ni_sizes:[ 200 ] ~full:false ()

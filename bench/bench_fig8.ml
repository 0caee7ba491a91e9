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

let run_egglog ~seminaive ~jobs p =
  let t0 = Egglog.Telemetry.now () in
  let eng, _report = P.Egglog_enc.analyze ~seminaive ~jobs p in
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

module J = Egglog.Telemetry.Json

let cell_json (c, sum) =
  J.Obj
    [
      ("seconds", match c with Time t -> J.Float t | Timeout_cell -> J.Null);
      ("timeout", J.Bool (c = Timeout_cell));
      ("checksum", match sum with Some s -> J.Int s | None -> J.Null);
    ]

let run ?sizes ?ni_sizes ?(jobs = 1) ~full () =
  Printf.printf
    "\n=== Fig. 8: Steensgaard points-to (timeout %.0fs, jobs %d) ===\n%!" timeout_s jobs;
  let sizes =
    match sizes with
    | Some s -> s
    | None -> if full then [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ] else [ 4; 8; 16; 32; 64; 128 ]
  in
  Printf.printf "%6s %7s  %10s %10s %10s %10s %10s  %s\n" "size" "insts" "egglog" "egglogNI"
    "eqrel" "cclyzer++" "patched" "result";
  Egglog.Telemetry.reset ();
  Egglog.Telemetry.enable ();
  let speedups_patched = ref [] and speedups_cc = ref [] and speedups_ni = ref [] in
  let rows =
    List.map
      (fun size ->
        let p = P.Progen.generate ~size ~seed:1 () in
        let ref_sum = checksum (P.Reference.var_sites p (P.Reference.analyze p)) in
        let sn = run_egglog ~seminaive:true ~jobs p in
        let ni = run_egglog ~seminaive:false ~jobs p in
        let eq = run_datalog P.Datalog_enc.Eqrel p in
        let cc = run_datalog P.Datalog_enc.Cclyzer p in
        let pa = run_datalog P.Datalog_enc.Patched p in
        let verdict (label, (_, sum)) =
          match sum with
          | None -> ""
          | Some s -> if s = ref_sum then "" else Printf.sprintf "%s:UNSOUND " label
        in
        let systems =
          [ ("egglog", sn); ("NI", ni); ("eqrel", eq); ("cclyzer", cc); ("patched", pa) ]
        in
        let result = String.concat "" (List.map verdict systems) in
        let result = if result = "" then "all-finishers-sound-except-noted" else result in
        Printf.printf "%6d %7d  %s %s %s %s %s  %s\n%!" size
          (Array.length p.P.Ir.insts)
          (pp_cell (fst sn)) (pp_cell (fst ni)) (pp_cell (fst eq)) (pp_cell (fst cc))
          (pp_cell (fst pa)) result;
        (match (fst sn, fst pa) with
         | Time a, Time b when a > 0.0005 -> speedups_patched := (b /. a) :: !speedups_patched
         | _ -> ());
        (match (fst sn, fst cc) with
         | Time a, Time b when a > 0.0005 -> speedups_cc := (b /. a) :: !speedups_cc
         | _ -> ());
        (match (fst sn, fst ni) with
         | Time a, Time b when a > 0.0005 -> speedups_ni := (b /. a) :: !speedups_ni
         | _ -> ());
        let sound (_, sum) =
          match sum with Some s -> J.Bool (s = ref_sum) | None -> J.Null
        in
        J.Obj
          [
            ("size", J.Int size);
            ("insts", J.Int (Array.length p.P.Ir.insts));
            ("reference_checksum", J.Int ref_sum);
            ( "systems",
              J.Obj
                (List.map
                   (fun (label, r) ->
                     ( label,
                       match cell_json r with
                       | J.Obj fields -> J.Obj (fields @ [ ("sound", sound r) ])
                       | j -> j ))
                   systems) );
          ])
      sizes
  in
  Printf.printf "\ngeomean speedup of egglog over patched : %6.2fx (paper: 4.96x, not counting timeouts)\n"
    (geo_mean !speedups_patched);
  Printf.printf "geomean speedup of egglog over cclyzer++: %6.2fx (paper: 1.94x)\n"
    (geo_mean !speedups_cc);
  ignore !speedups_ni;
  (* The egglog-vs-egglogNI comparison needs sizes where the engines do
     real work; the Souffle baselines cannot reach them, so run the two
     egglog variants alone at larger scale. *)
  let ni_sizes =
    match ni_sizes with
    | Some s -> s
    | None -> if full then [ 1000; 3000; 10000 ] else [ 1000; 3000 ]
  in
  let ni_rows = ref [] in
  let ni_speedups =
    List.filter_map
      (fun size ->
        let p = P.Progen.generate ~size ~seed:1 () in
        match
          ( run_egglog ~seminaive:true ~jobs p,
            run_egglog ~seminaive:false ~jobs p )
        with
        | (Time a, _), (Time b, _) ->
          Printf.printf "%6d %7d  egglog %.3fs vs egglogNI %.3fs\n" size
            (Array.length p.P.Ir.insts) a b;
          ni_rows :=
            J.Obj
              [
                ("size", J.Int size);
                ("insts", J.Int (Array.length p.P.Ir.insts));
                ("egglog_seconds", J.Float a);
                ("egglogNI_seconds", J.Float b);
              ]
            :: !ni_rows;
          Some (b /. a)
        | _ -> None)
      ni_sizes
  in
  Printf.printf "geomean speedup of egglog over egglogNI : %6.2fx (paper: 1.59x)\n%!"
    (geo_mean ni_speedups);
  Egglog.Telemetry.disable ();
  let telemetry = Egglog.Telemetry.snapshot_to_json (Egglog.Telemetry.snapshot ()) in
  (* Serial-vs-parallel phase split on the largest egglog-only input, each
     run in its own telemetry region (the main snapshot is already taken). *)
  let parallel_jobs = if jobs > 1 then jobs else 4 in
  let profile_size = List.fold_left max 0 ni_sizes in
  let profile_prog = P.Progen.generate ~size:profile_size ~seed:1 () in
  let phase_profile ~jobs =
    Egglog.Telemetry.reset ();
    Egglog.Telemetry.enable ();
    ignore (P.Egglog_enc.analyze ~seminaive:true ~jobs profile_prog);
    Egglog.Telemetry.disable ();
    let snap = Egglog.Telemetry.snapshot () in
    List.map
      (fun name ->
        ( name,
          match List.assoc_opt (name ^ "_s") snap.Egglog.Telemetry.sn_hists with
          | Some h -> h.Egglog.Telemetry.hs_sum
          | None -> 0.0 ))
      [ "engine.search"; "engine.apply"; "engine.rebuild" ]
  in
  let serial_phases = phase_profile ~jobs:1 in
  let parallel_phases = phase_profile ~jobs:parallel_jobs in
  Egglog.Telemetry.reset ();
  Printf.printf "per-phase seconds at size %d, serial vs jobs=%d:\n" profile_size parallel_jobs;
  List.iter2
    (fun (name, s) (_, p) ->
      Printf.printf "  %-16s %8.4fs -> %8.4fs (%.2fx)\n" name s p
        (if p > 0.0 then s /. p else nan))
    serial_phases parallel_phases;
  let phases_json phases = J.Obj (List.map (fun (name, s) -> (name, J.Float s)) phases) in
  let geo label = function
    | [] -> (label, J.Null)
    | rs -> (label, J.Float (geo_mean rs))
  in
  Bench_report.write ~telemetry ~bench:"fig8"
    ~params:
      (J.Obj
         [
           ("timeout_seconds", J.Float timeout_s);
           ("full", J.Bool full);
           ("jobs", J.Int jobs);
           ("sizes", J.List (List.map (fun s -> J.Int s) sizes));
         ])
    ~data:
      (J.Obj
         [
           ("rows", J.List rows);
           ("ni_rows", J.List (List.rev !ni_rows));
           ( "geomean_speedups",
             J.Obj
               [
                 geo "egglog_over_patched" !speedups_patched;
                 geo "egglog_over_cclyzer" !speedups_cc;
                 geo "egglog_over_egglogNI" ni_speedups;
               ] );
           ( "phase_profile",
             J.Obj
               [
                 ("size", J.Int profile_size);
                 ("parallel_jobs", J.Int parallel_jobs);
                 ("serial", phases_json serial_phases);
                 ("parallel", phases_json parallel_phases);
               ] );
         ])
    ()

(* CI smoke: two tiny sizes plus one NI comparison point; exercises every
   reporting path (table, soundness verdicts, JSON) in well under a second. *)
let run_smoke ?jobs () = run ~sizes:[ 4; 8 ] ~ni_sizes:[ 200 ] ?jobs ~full:false ()

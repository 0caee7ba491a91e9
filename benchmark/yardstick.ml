(* A machine-speed yardstick. On a shared host the speed of the whole
   machine drifts by tens of percent over minutes: the same rep of the
   same input took from 0.8 to 1.4 s on the 2-core reference box in one
   afternoon, and a median over the reps of one run cannot remove drift
   that outlasts the run. So each rep times this loop before and after its
   measured part, and every time it reports is scaled by
   [reference_s / yardstick]: the time the rep would have taken had the
   machine run the loop at its reference speed. The loop uses none of the
   program's code, so no change to the program can move it. *)

(* The loop's typical time on one domain of the reference box (2 vCPUs of
   an Intel Xeon at 2.1 GHz). *)
let reference_s = 0.021

(* Random read-modify-writes over a 4 MB table: integer work plus cache
   misses, the two things the engine's joins and hash tables spend on. The
   table lives outside the OCaml heap, so it cannot change how the
   program's heap grows. *)
let[@inline never] time_loop () =
  let n = 1 lsl 19 in
  let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill table 0;
  let t0 = Egglog.Telemetry.now () in
  let x = ref 1 in
  for _ = 1 to 8_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land (n - 1) in
    Bigarray.Array1.unsafe_set table i (Bigarray.Array1.unsafe_get table i + 1)
  done;
  Egglog.Telemetry.now () -. t0

(* The loop's time on [domains] domains at once, averaged: a workload that
   computes on two domains runs at the pace of both cores, and on this
   host the two drift apart. The tables are garbage afterwards; a caller
   that reads the peak resident set next collects them first. *)
let measure ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn time_loop) in
  let mine = time_loop () in
  let times = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0.0 times /. float_of_int domains

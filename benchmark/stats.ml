(* Order statistics over raw samples. Every timing the benchmark reports
   comes from here, so a quantile means the same thing in every report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method (Python's
   [statistics.quantiles(xs, n=4)]), so the spreads printed here are the
   ones a reader recomputes from the raw values. A single sample is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* The nearest rank of percentile [p] (a whole number) among [n] samples:
   the smallest rank with at least [p] percent of the samples at or below
   it. [n - rank p n] samples lie beyond it; a tail percentile means little
   when they are fewer than ten. *)
let rank p n = max 1 (((p * n) + 99) / 100)

(* Nearest-rank percentile over raw samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank p n - 1)

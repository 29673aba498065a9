(* Order statistics over host-time samples. *)

(* Per-op latency percentiles are the service's own exact nearest-rank
   estimator, over integer nanoseconds. *)
let nearest_rank = Uhm_serve.Percentile.nearest_rank

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles data ~n:4] with its default
   'exclusive' method: the run-to-run spread is judged with exactly this
   arithmetic, so the comparison tool must reproduce it, clamping
   included. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

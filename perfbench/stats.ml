(* Exact order statistics over the benchmark's own samples.

   Percentiles use the nearest-rank definition, so every reported value
   is one of the measured samples (no histogram buckets, no
   interpolation).  Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   which is what the spread across repeated runs is judged by. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it.  [nan] on no samples. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p]th percentile: the tail a reported
   percentile rests on. *)
let above xs p =
  let v = percentile xs p in
  List.length (List.filter (fun x -> x > v) xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* (q1, q2, q3) as statistics.quantiles(xs, n=4, method='exclusive'). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

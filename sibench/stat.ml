(* Sample statistics shared by the metric code, [--repeat] and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array; nan when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* First and third quartile exactly as Python's
   statistics.quantiles(values, n=4) computes them (its default
   "exclusive" method), so spreads read the same here as in the
   acceptance check. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
      let delta = float_of_int ((i * (ld + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* (q3 - q1) / median: the relative spread the bounds are checked
   against. *)
let rel_iqr xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Order statistics for reporting timings. Percentiles of a sample are
   [Server.Sched.percentile] (nearest rank). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let beyond q n = n - int_of_float (ceil (q *. float_of_int n))

(* The percentiles a tail timing may be reported at. *)
let ladder = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

(* The highest percentile of [ladder] with at least ten samples beyond
   it: the tail a sample of [n] can support (p95 at n = 200). *)
let tail_quantile n =
  List.fold_left (fun best q -> if beyond q n >= 10 then Some q else best) None ladder

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Median and quartiles as Python's [statistics.median] and
   [statistics.quantiles(xs, n=4)] (the exclusive method) compute
   them, so spreads read the same here as in any script. *)
let median xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

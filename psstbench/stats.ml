(* Order statistics shared by the workloads and by [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]: the smallest sample with at
   least [p] of the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles xs ~n:4]
   (method "exclusive"), so spreads computed here agree with Python's to
   the last digit. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median ([infinity] for a
   zero median, which no bounded metric may have). *)
let rel_spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Throughput robust to a burst that stalls part of a run: the median,
   over the [seconds] whole one-second windows after [start], of the
   number of [times] that fall in the window. *)
let window_rate ~start ~seconds times =
  if seconds < 1 then invalid_arg "Stats.window_rate: no window";
  let counts = Array.make seconds 0 in
  List.iter
    (fun t ->
      let w = int_of_float (Float.floor (t -. start)) in
      if w >= 0 && w < seconds then counts.(w) <- counts.(w) + 1)
    times;
  median (Array.to_list (Array.map float_of_int counts))

(* Order statistics over timing samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Linear interpolation between closest ranks, q in [0, 1]. *)
let percentile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = percentile a 0.5

(* Quartile spread as a share of the median, the way Python's
   [statistics.quantiles(values, n=4)] places the quartiles (the
   "exclusive" method). *)
let iqr_share a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then 0.0
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 3 -. q 1) /. Float.abs (median a)

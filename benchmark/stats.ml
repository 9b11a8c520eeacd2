(* Order statistics over float samples. *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* First and third quartiles by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else 0.0 in
    (v, v)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let require_non_empty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  require_non_empty "Summary.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  require_non_empty "Summary.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let ss =
      Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    in
    ss /. float_of_int (n - 1)

let std_dev xs = sqrt (variance xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let quantile xs q =
  require_non_empty "Summary.quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.quantile: q outside [0,1]";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))

let median xs = quantile xs 0.5

let min_max xs =
  require_non_empty "Summary.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

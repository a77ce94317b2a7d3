(* Token scores are clamped into [epsilon, 1 - epsilon] before taking
   logarithms: a probability of exactly 0 would make the statistic
   infinite and the chi-square tail meaningless. *)
let epsilon = 1e-12

(* The same value as [Float.max epsilon (Float.min (1.0 -. epsilon) p)]
   for every p the fold admits (NaN and -0.0 included), by plain
   comparisons that keep the float unboxed. *)
let[@inline] clamp p = if p < epsilon then epsilon else if p > 1.0 -. epsilon then 1.0 -. epsilon else p

(* One direction of the fold over [fs.(0 .. n-1)]: validate, clamp,
   accumulate -2 ln p left to right, then one chi-square tail at 2n
   degrees of freedom.  [~flip] folds the complements 1 - f instead,
   without materializing them. *)
let combine fs n ~flip =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let f = Array.unsafe_get fs i in
    let p = if flip then 1.0 -. f else f in
    if p < 0.0 || p > 1.0 then
      invalid_arg "Fisher.indicator: p-value outside [0,1]";
    acc := !acc -. (2.0 *. log (clamp p))
  done;
  Special.chi2_sf ~df:(2 * n) !acc

let indicator fs n =
  if n < 0 || n > Array.length fs then
    invalid_arg "Fisher.indicator: prefix length out of bounds";
  if n = 0 then 0.5
  else
    let h = combine fs n ~flip:false in
    let s = combine fs n ~flip:true in
    (1.0 +. h -. s) /. 2.0

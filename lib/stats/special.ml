(* Lanczos approximation, g = 7, n = 9 coefficients (Godfrey).  Relative
   error below 1e-13 over the positive reals. *)
let lanczos_g = 7.0

let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: requires x > 0";
  if x < 0.5 then
    (* Reflection formula keeps the Lanczos argument >= 0.5. *)
    let pi = Float.pi in
    log (pi /. sin (pi *. x)) -. log_gamma_positive (1.0 -. x)
  else log_gamma_positive x

and log_gamma_positive x =
  let x = x -. 1.0 in
  let acc = ref lanczos_coefficients.(0) in
  for i = 1 to Array.length lanczos_coefficients - 1 do
    acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
  done;
  let t = x +. lanczos_g +. 0.5 in
  (0.5 *. log (2.0 *. Float.pi))
  +. ((x +. 0.5) *. log t)
  -. t
  +. log !acc

(* Series representation of P(a,x): converges quickly for x < a + 1.
   A loop over float refs, which stay unboxed: a recursive helper
   would box its float arguments at every term. *)
let gamma_p_series a x =
  let max_iterations = 500 in
  let epsilon = 1e-15 in
  let first = 1.0 /. a in
  let term = ref first and sum = ref first and n = ref 1 in
  while
    !n <= max_iterations
    &&
    (term := !term *. x /. (a +. float_of_int !n);
     sum := !sum +. !term;
     not (Float.abs !term < Float.abs !sum *. epsilon))
  do
    incr n
  done;
  !sum *. exp ((a *. log x) -. x -. log_gamma a)

(* Modified Lentz continued fraction for Q(a,x): converges quickly for
   x >= a + 1. *)
let gamma_q_continued_fraction a x =
  let max_iterations = 500 in
  let epsilon = 1e-15 in
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  (try
     for i = 1 to max_iterations do
       let an = -.float_of_int i *. (float_of_int i -. a) in
       b := !b +. 2.0;
       d := (an *. !d) +. !b;
       if Float.abs !d < tiny then d := tiny;
       c := !b +. (an /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1.0 /. !d;
       let delta = !d *. !c in
       h := !h *. delta;
       if Float.abs (delta -. 1.0) < epsilon then raise Exit
     done
   with Exit -> ());
  exp ((a *. log x) -. x -. log_gamma a) *. !h

let gamma_p a x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: requires a > 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: requires x >= 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x
  else 1.0 -. gamma_q_continued_fraction a x

let gamma_q a x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: requires a > 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: requires x >= 0";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series a x
  else gamma_q_continued_fraction a x

let chi2_sf ~df x =
  if df <= 0 then invalid_arg "Special.chi2_sf: requires df > 0";
  if x <= 0.0 then 1.0 else gamma_q (float_of_int df /. 2.0) (x /. 2.0)

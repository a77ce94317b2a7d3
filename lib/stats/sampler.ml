type categorical = {
  probabilities : float array; (* normalized, for introspection *)
  alias_prob : float array; (* alias-method acceptance thresholds *)
  alias_index : int array; (* alias-method redirect table *)
}

(* Walker's alias method, built with the standard two-worklist (small /
   large) construction.  O(n) setup, O(1) per draw. *)
let categorical weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sampler.categorical: empty weights";
  Array.iter
    (fun w ->
      if w < 0.0 || not (Float.is_finite w) then
        invalid_arg "Sampler.categorical: negative or non-finite weight")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (Float.is_finite total) || total <= 0.0 then
    invalid_arg "Sampler.categorical: weights must sum to a positive finite";
  let probabilities = Array.map (fun w -> w /. total) weights in
  let scaled = Array.map (fun p -> p *. float_of_int n) probabilities in
  let alias_prob = Array.make n 1.0 in
  let alias_index = Array.init n (fun i -> i) in
  let small = Queue.create () in
  let large = Queue.create () in
  Array.iteri
    (fun i s -> if s < 1.0 then Queue.add i small else Queue.add i large)
    scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small in
    let l = Queue.pop large in
    alias_prob.(s) <- scaled.(s);
    alias_index.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
    if scaled.(l) < 1.0 then Queue.add l small else Queue.add l large
  done;
  (* Whatever remains is 1.0 up to rounding. *)
  Queue.iter (fun i -> alias_prob.(i) <- 1.0) small;
  Queue.iter (fun i -> alias_prob.(i) <- 1.0) large;
  { probabilities; alias_prob; alias_index }

let categorical_draw c rng =
  let n = Array.length c.alias_prob in
  let i = Rng.int rng n in
  if Rng.float rng < c.alias_prob.(i) then i else c.alias_index.(i)

let categorical_support c = Array.length c.probabilities

let categorical_prob c i =
  if i < 0 || i >= Array.length c.probabilities then
    invalid_arg "Sampler.categorical_prob: index out of range";
  c.probabilities.(i)

let zipf ?(exponent = 1.1) n =
  if n <= 0 then invalid_arg "Sampler.zipf: n must be positive";
  if exponent <= 0.0 then invalid_arg "Sampler.zipf: exponent must be positive";
  categorical
    (Array.init n (fun k -> (float_of_int (k + 1)) ** -.exponent))

let normal rng ~mean ~std =
  if std < 0.0 then invalid_arg "Sampler.normal: negative std";
  let u1 = Rng.float rng +. 1e-18 in
  let u2 = Rng.float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (std *. z)

let log_normal rng ~mu ~sigma = exp (normal rng ~mean:mu ~std:sigma)

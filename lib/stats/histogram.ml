type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
}

let create ?(bins = 20) ~lo ~hi () =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0 }

let bin_of t x =
  let n = Array.length t.counts in
  if x <= t.lo then 0
  else if x >= t.hi then n - 1
  else min (n - 1) (int_of_float ((x -. t.lo) /. t.width))

let add t x = t.counts.(bin_of t x) <- t.counts.(bin_of t x) + 1

let render ?(width = 40) t =
  let peak = Array.fold_left max 1 t.counts in
  let buffer = Buffer.create 256 in
  Array.iteri
    (fun i c ->
      let lo = t.lo +. (float_of_int i *. t.width) in
      let hi = lo +. t.width in
      let bar = c * width / peak in
      Buffer.add_string buffer
        (Printf.sprintf "%6.3f..%6.3f | %-*s %d\n" lo hi width
           (String.make bar '#') c))
    t.counts;
  Buffer.contents buffer

(* The benchmark's own arithmetic, kept free of I/O so the tests can
   pin it on synthetic inputs: tail percentiles, windowed medians and
   stage shares. *)

(* A percentile is given in per-mille (990 = p99) so rank arithmetic
   stays in integers: [0.99 *. n] is not exact in binary floating
   point, and an off-by-one rank would move the tail sample. *)

(* Nearest rank: the smallest sample with at least [pm/1000] of the
   samples at or below it. *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)

(* Samples strictly beyond the percentile's rank. *)
let beyond ~n pm = n - rank ~n pm

(* A tail percentile is only reported when at least this many samples
   lie beyond it; fewer and one outlier moves it. *)
let min_beyond = 10

let supports ~n pm = n > 0 && beyond ~n pm >= min_beyond

(* [sorted] ascending. *)
let percentile sorted pm =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~n pm - 1)

type latency = { n : int; p50 : float; tail : float }

(* Median and the [tail] percentile (per-mille, default p99) of
   [samples]; [Error] when the tail lacks [min_beyond] samples beyond
   it, naming the sample count it had. *)
let latency ?(tail = 990) samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if not (supports ~n tail) then
    Error
      (Printf.sprintf "%d samples: p%g needs at least %d beyond it" n
         (float_of_int tail /. 10.0)
         min_beyond)
  else Ok { n; p50 = percentile sorted 500; tail = percentile sorted tail }

let median samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  if Array.length sorted = 0 then invalid_arg "Stats.median: no samples";
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let mean samples =
  if Array.length samples = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* The median of [values] within each of [windows] equal windows of
   [t0, t0 + elapsed), by when each was [finished], averaged over the
   windows that hold any.  On a host whose speed shifts between phases
   lasting seconds, one median over the whole run jumps from one
   phase's value to the other's as their mix crosses half; this moves
   with the mix, and each window's median still ignores its outliers. *)
let windowed_median ~t0 ~elapsed ~windows ~finished values =
  if windows < 1 || not (elapsed > 0.0) then
    invalid_arg "Stats.windowed_median: need windows >= 1 and elapsed > 0";
  let width = elapsed /. float_of_int windows in
  let buckets = Array.make windows [] in
  Array.iteri
    (fun i t ->
      let w = int_of_float (Float.floor ((t -. t0) /. width)) in
      if w >= 0 && w < windows then buckets.(w) <- values.(i) :: buckets.(w))
    finished;
  let medians =
    List.filter_map
      (function [] -> None | vs -> Some (median (Array.of_list vs)))
      (Array.to_list buckets)
  in
  if medians = [] then invalid_arg "Stats.windowed_median: no value in any window";
  mean (Array.of_list medians)

type shares = { stages : (string * float) list; unattributed : float }

(* Each stage's share of the enclosing time [total], and the share no
   named stage explains.  The remainder is negative when the stages
   overlap or were timed outside the enclosing interval. *)
let shares ~total stages =
  if not (total > 0.0) then invalid_arg "Stats.shares: total must be > 0";
  let named = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 stages in
  {
    stages = List.map (fun (name, t) -> (name, t /. total)) stages;
    unattributed = (total -. named) /. total;
  }

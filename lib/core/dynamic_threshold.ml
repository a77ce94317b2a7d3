module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify

type config = { quantile : float }

(* Evaluate g at every candidate threshold in one sorted pass.  With the
   scored set sorted ascending, placing t between positions i-1 and i
   gives N_S,<(t) = spam among the first i and N_H,>(t) = ham among the
   rest (score ties sit on one side; candidates are midpoints so exact
   ties cannot straddle).  Each entry carries a multiplicity so that
   identical poisoned-training emails are scored once and weighted. *)
let candidates_with_utility scores =
  let sorted = Array.copy scores in
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) sorted;
  let n = Array.length sorted in
  let spam_prefix = Array.make (n + 1) 0 in
  let ham_prefix = Array.make (n + 1) 0 in
  Array.iteri
    (fun i (_, gold, weight) ->
      spam_prefix.(i + 1) <-
        (spam_prefix.(i) + if gold = Label.Spam then weight else 0);
      ham_prefix.(i + 1) <-
        (ham_prefix.(i) + if gold = Label.Ham then weight else 0))
    sorted;
  let total_ham = ham_prefix.(n) in
  let score_at i =
    let s, _, _ = sorted.(i) in
    s
  in
  let candidate i =
    (* Midpoint between sorted.(i-1) and sorted.(i); 0 and 1 at the
       extremes. *)
    if i = 0 then Float.max 0.0 (score_at 0 /. 2.0)
    else if i = n then
      Float.min 1.0 (score_at (n - 1) +. ((1.0 -. score_at (n - 1)) /. 2.0))
    else (score_at (i - 1) +. score_at i) /. 2.0
  in
  (* The prefix counts describe threshold t only when
     score_at(i-1) < t <= score_at(i): everything before position i is
     strictly below t (not caught by ">= t") and everything from i on is
     at or above it.  A candidate violating that — a midpoint between
     equal scores, or the top endpoint when the maximum score is 1.0 so
     the candidate collides with an attained score — would install a
     cutoff whose measured utility disagrees with the verdict function,
     so it is skipped. *)
  let consistent i t =
    (i = 0 || score_at (i - 1) < t) && (i = n || t <= score_at i)
  in
  Array.of_list
    (List.filter_map
       (fun i ->
         let t = candidate i in
         if not (consistent i t) then None
         else
           let spam_below = spam_prefix.(i) in
           let ham_above = total_ham - ham_prefix.(i) in
           let g =
             if spam_below + ham_above = 0 then 0.5
             else
               float_of_int spam_below
               /. float_of_int (spam_below + ham_above)
           in
           Some (t, g))
       (List.init (n + 1) Fun.id))

(* θ0 is the largest threshold still satisfying g(t) ≤ q: pushing it as
   high as the quantile allows keeps the most ham out of the unsure
   band.  Symmetrically θ1 is the smallest threshold with g(t) ≥ 1−q.
   (g is monotone non-decreasing in t, so these are well-defined ends of
   the feasible regions; when no candidate qualifies, fall back to the
   closest one.) *)
let closest_to target table =
  let best = ref table.(0) in
  Array.iter
    (fun (t, g) ->
      let _, bg = !best in
      if Float.abs (g -. target) < Float.abs (bg -. target) then
        best := (t, g))
    table;
  fst !best

let highest_with_utility_at_most target table =
  let best = ref None in
  Array.iter
    (fun (t, g) ->
      if g <= target then
        match !best with
        | Some (bt, _) when bt >= t -> ()
        | _ -> best := Some (t, g))
    table;
  match !best with Some (t, _) -> t | None -> closest_to target table

let lowest_with_utility_at_least target table =
  let best = ref None in
  Array.iter
    (fun (t, g) ->
      if g >= target then
        match !best with
        | Some (bt, _) when bt <= t -> ()
        | _ -> best := Some (t, g))
    table;
  match !best with Some (t, _) -> t | None -> closest_to target table

let thresholds_of_scores ~config scores =
  if Array.length scores = 0 then
    invalid_arg "Dynamic_threshold.thresholds_of_scores: no scores";
  if Array.for_all (fun (_, _, w) -> w <= 0) scores then
    invalid_arg "Dynamic_threshold.thresholds_of_scores: zero total weight";
  let table = candidates_with_utility scores in
  let theta0 = highest_with_utility_at_most config.quantile table in
  let theta1 = lowest_with_utility_at_least (1.0 -. config.quantile) table in
  let theta0 = Float.max 0.0 (Float.min theta0 0.999) in
  let theta1 = Float.min 1.0 theta1 in
  if theta1 > theta0 then (theta0, theta1)
  else (theta0, Float.min 1.0 (theta0 +. 1e-6))

let thresholds ~config rng examples =
  if Array.length examples < 4 then
    invalid_arg "Dynamic_threshold.thresholds: training set too small";
  let half_a, half_b = Dataset.split rng 0.5 examples in
  let filter = Filter.create () in
  Dataset.train_filter filter half_a;
  let scores =
    Array.map
      (fun (e : Dataset.example) ->
        ((Dataset.classify filter e).Classify.indicator, e.label, 1))
      half_b
  in
  thresholds_of_scores ~config scores

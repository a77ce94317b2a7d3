module Label = Spamlab_spambayes.Label
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Ingest = Spamlab_spambayes.Ingest

type example = { label : Label.gold; ids : int array; raw_token_count : int }

let tokenize_ids tokenizer msg =
  Ingest.with_unique_ids tokenizer msg (fun ids n raw ->
      (Array.sub ids 0 n, raw))

let of_message tokenizer label msg =
  let ids, raw_token_count = tokenize_ids tokenizer msg in
  { label; ids; raw_token_count }

let of_labeled ?pool tokenizer corpus =
  let build (label, msg) = of_message tokenizer label msg in
  match pool with
  | Some p -> Spamlab_parallel.Pool.map_array p build corpus
  | None -> Array.map build corpus

let train_filter filter examples =
  let db = Filter.db filter in
  Array.iter (fun e -> Token_db.train_ids db e.label e.ids) examples

let classify filter e = Filter.classify_ids filter e.ids

let kfold ~k arr =
  let n = Array.length arr in
  if k < 2 then invalid_arg "Dataset.kfold: k must be at least 2";
  if k > n then invalid_arg "Dataset.kfold: more folds than elements";
  Array.init k (fun i ->
      let lo = i * n / k in
      let hi = (i + 1) * n / k in
      let test = Array.sub arr lo (hi - lo) in
      let train =
        Array.append (Array.sub arr 0 lo) (Array.sub arr hi (n - hi))
      in
      (train, test))

let split rng frac arr =
  if frac < 0.0 || frac > 1.0 then invalid_arg "Dataset.split: bad fraction";
  let copy = Array.copy arr in
  Spamlab_stats.Rng.shuffle rng copy;
  let cut = int_of_float (frac *. float_of_int (Array.length copy)) in
  (Array.sub copy 0 cut, Array.sub copy cut (Array.length copy - cut))

let total_raw_tokens examples =
  Array.fold_left (fun acc e -> acc + e.raw_token_count) 0 examples

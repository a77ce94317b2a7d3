let chunks ~words ~chunk_size =
  let n = Array.length words in
  if n = 0 then invalid_arg "Split_attack.chunks: empty word list";
  if chunk_size <= 0 then
    invalid_arg "Split_attack.chunks: chunk_size must be positive";
  let count = (n + chunk_size - 1) / chunk_size in
  let buckets = Array.make count [] in
  Array.iteri (fun i w -> buckets.(i mod count) <- w :: buckets.(i mod count)) words;
  Array.map (fun bucket -> Array.of_list (List.rev bucket)) buckets

let train filter tokenizer ~words ~chunk_size ~copies =
  let module Spambayes = Spamlab_spambayes in
  Array.iter
    (fun chunk ->
      let payload, _ =
        Spamlab_corpus.Dataset.tokenize_ids tokenizer
          (Attack_email.make ~words:(Array.to_list chunk))
      in
      Spambayes.Token_db.train_many_ids (Spambayes.Filter.db filter)
        Spambayes.Label.Spam payload copies)
    (chunks ~words ~chunk_size)

let size_percentile ~corpus_sizes size =
  let n = Array.length corpus_sizes in
  if n = 0 then invalid_arg "Split_attack.size_percentile: empty corpus";
  let below =
    Array.fold_left (fun acc s -> if s < size then acc + 1 else acc) 0
      corpus_sizes
  in
  100.0 *. float_of_int below /. float_of_int n

module Label = Spamlab_spambayes.Label
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Tokenizer = Spamlab_tokenizer.Tokenizer

module Intern = Spamlab_spambayes.Intern

type example = {
  label : Label.gold;
  tokens : string array;
  ids : int array;
  raw_token_count : int;
}

let of_tokens label tokens ~raw_token_count =
  { label; tokens; ids = Intern.intern_array tokens; raw_token_count }

module Ingest = Spamlab_spambayes.Ingest

(* Zero-copy path: tokenizers push byte slices which intern in place
   (Ingest.with_unique_ids); only the distinct tokens are ever
   materialized as strings — shared with the intern table, not
   allocated per message.  [tokens]/[ids] keep the string-sorted order
   [Tokenizer.unique_tokens] returns: attack construction and the roni
   defense iterate [tokens] and rely on it.

   The sort runs over an int permutation, never over boxed pairs: a
   per-message (string * id) array is large enough to be allocated
   directly in the major heap, and filling and sorting it floods the
   remembered set with old-to-young pointers — each message then
   forces minor collections, which at --jobs > 1 are stop-the-world
   rendezvous across every domain.  An int array takes no write
   barrier at all. *)
let sorted_perm ids n =
  let perm = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      String.compare (Intern.to_string ids.(a)) (Intern.to_string ids.(b)))
    perm;
  perm

let of_message tokenizer label msg =
  Ingest.with_unique_ids tokenizer msg (fun ids n raw ->
      let perm = sorted_perm ids n in
      {
        label;
        tokens = Array.init n (fun k -> Intern.to_string ids.(perm.(k)));
        ids = Array.init n (fun k -> ids.(perm.(k)));
        raw_token_count = raw;
      })

let tokenize_ids tokenizer msg =
  Ingest.with_unique_ids tokenizer msg (fun ids n raw ->
      let perm = sorted_perm ids n in
      (Array.init n (fun k -> ids.(perm.(k))), raw))

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

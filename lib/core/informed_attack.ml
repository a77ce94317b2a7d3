let select word_probs ~budget =
  if budget < 0 then invalid_arg "Informed_attack.select: negative budget";
  let positive =
    Array.of_list
      (List.filter (fun (_, p) -> p > 0.0) (Array.to_list word_probs))
  in
  let by_prob_desc (wa, pa) (wb, pb) =
    match Float.compare pb pa with
    | 0 -> String.compare wa wb
    | c -> c
  in
  Array.sort by_prob_desc positive;
  Array.map fst (Array.sub positive 0 (min budget (Array.length positive)))

let of_language_model model ~budget =
  let support = Spamlab_corpus.Language_model.support model in
  let probs =
    Array.map
      (fun w -> (w, Spamlab_corpus.Language_model.word_prob model w))
      support
  in
  select probs ~budget

let estimate_from_sample rng ~sample ~messages ~tokenizer =
  if messages <= 0 then
    invalid_arg "Informed_attack.estimate_from_sample: messages <= 0";
  let document_frequency = Hashtbl.create 4096 in
  for _ = 1 to messages do
    let msg = sample rng in
    Array.iter
      (fun token ->
        let count =
          Option.value ~default:0 (Hashtbl.find_opt document_frequency token)
        in
        Hashtbl.replace document_frequency token (count + 1))
      (Spamlab_tokenizer.Tokenizer.unique_tokens tokenizer msg)
  done;
  let out =
    Hashtbl.fold
      (fun token count acc ->
        (token, float_of_int count /. float_of_int messages) :: acc)
      document_frequency []
  in
  Array.of_list out

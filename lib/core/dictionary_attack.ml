type t = { name : string; words : string array }

let make ~name ~words =
  if Array.length words = 0 then
    invalid_arg "Dictionary_attack.make: empty word list";
  { name; words }

let name t = t.name
let word_count t = Array.length t.words

let taxonomy = Taxonomy.dictionary_attack

let email t = Attack_email.make ~words:(Array.to_list t.words)

let emails t ~count = List.init count (fun _ -> email t)

let payload tokenizer t =
  fst (Spamlab_corpus.Dataset.tokenize_ids tokenizer (email t))

let raw_token_count tokenizer t =
  snd (Spamlab_corpus.Dataset.tokenize_ids tokenizer (email t))

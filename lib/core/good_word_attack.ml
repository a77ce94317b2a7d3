module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Classify = Spamlab_spambayes.Classify
module Label = Spamlab_spambayes.Label
module Message = Spamlab_email.Message

(* Tokens the attacker can inject through a body: plain words the
   tokenizer would reproduce.  Prefixed tokens (subject:, from:..., url:,
   skip:, email ...) contain characters a body word never yields. *)
let body_insertable token =
  String.length token >= 3
  && String.length token <= 12
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
       token

let hammiest_tokens filter ~limit =
  let db = Filter.db filter in
  let options = Filter.options filter in
  let scored =
    Token_db.fold
      (fun acc id ~spam:_ ~ham:_ ->
        let token = Spamlab_spambayes.Intern.to_string id in
        if body_insertable token then
          (token, Spamlab_spambayes.Prob_cache.smoothed_id options db id) :: acc
        else acc)
      [] db
  in
  let by_score (ta, sa) (tb, sb) =
    match Float.compare sa sb with 0 -> String.compare ta tb | c -> c
  in
  let sorted = List.sort by_score scored in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (t, _) :: rest -> t :: take (n - 1) rest
  in
  take limit sorted

type result = {
  padded : Spamlab_email.Message.t;
  words_added : int;
  verdict : Label.verdict;
  score : float;
}

let evade filter spam ~good_words ~max_words =
  let batch_size = 10 in
  let rec loop added words_left current =
    let classification = Filter.classify filter current in
    let verdict = classification.Classify.verdict in
    if verdict <> Label.Spam_v || added >= max_words || words_left = [] then
      {
        padded = current;
        words_added = added;
        verdict;
        score = classification.Classify.indicator;
      }
    else begin
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | w :: rest -> split (n - 1) (w :: acc) rest
      in
      let batch, rest = split (min batch_size (max_words - added)) [] words_left in
      let padded_body =
        Message.body current ^ "\n" ^ Attack_email.body_of_words batch
      in
      loop (added + List.length batch) rest
        (Message.with_body current padded_body)
    end
  in
  loop 0 good_words spam

type t = {
  unknown_word_prob : float;
  unknown_word_strength : float;
  ham_cutoff : float;
  spam_cutoff : float;
  max_discriminators : int;
  minimum_prob_strength : float;
}

let default =
  {
    unknown_word_prob = 0.5;
    unknown_word_strength = 0.45;
    ham_cutoff = 0.15;
    spam_cutoff = 0.9;
    max_discriminators = 150;
    minimum_prob_strength = 0.1;
  }

let validate t =
  if t.unknown_word_prob < 0.0 || t.unknown_word_prob > 1.0 then
    Error "unknown_word_prob must lie in [0,1]"
  else if t.unknown_word_strength <= 0.0 then
    Error "unknown_word_strength must be positive"
  else if not (0.0 <= t.ham_cutoff && t.ham_cutoff < t.spam_cutoff
               && t.spam_cutoff <= 1.0) then
    Error "cutoffs must satisfy 0 <= ham < spam <= 1"
  else if t.max_discriminators <= 0 then
    Error "max_discriminators must be positive"
  else if t.minimum_prob_strength < 0.0 || t.minimum_prob_strength > 0.5 then
    Error "minimum_prob_strength must lie in [0, 0.5]"
  else Ok t

let unknown_word_is_clue t =
  Float.abs (t.unknown_word_prob -. 0.5) >= t.minimum_prob_strength

let with_cutoffs t ~ham ~spam =
  match validate { t with ham_cutoff = ham; spam_cutoff = spam } with
  | Ok t -> t
  | Error e -> invalid_arg ("Options.with_cutoffs: " ^ e)

open Spamlab_stats
module Message = Spamlab_email.Message
module Text = Spamlab_tokenizer.Text

let target_words target =
  let subject = Option.value ~default:"" (Message.subject target) in
  let raw = Text.words subject @ Text.words (Message.body target) in
  (* Only words that survive tokenization are worth guessing: a too-short
     or too-long word in the attack body would never become the token
     the attacker needs to poison.  First-occurrence order,
     deduplicated. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun w ->
      let n = String.length w in
      n >= Spamlab_tokenizer.Spambayes_tok.min_word_length
      && n <= Spamlab_tokenizer.Spambayes_tok.max_word_length
      && not (Hashtbl.mem seen w)
      && begin
           Hashtbl.replace seen w ();
           true
         end)
    raw

type plan = {
  guess_probability : float;
  guessed : string list;
  missed : string list;
  emails : Spamlab_email.Message.t list;
}

let craft rng ~target ~p ~count ~header_pool =
  if p < 0.0 || p > 1.0 then
    invalid_arg "Focused_attack.craft: p outside [0,1]";
  if count < 0 then invalid_arg "Focused_attack.craft: negative count";
  if count > 0 && Array.length header_pool = 0 then
    invalid_arg "Focused_attack.craft: empty header pool";
  let all_words = target_words target in
  let guessed, missed =
    List.partition (fun _ -> Rng.bernoulli rng p) all_words
  in
  (* The attacker writes a plain-text body, so structural headers from
     the stolen spam (transfer encoding, multipart content type) must
     go — otherwise the victim's MIME layer would "decode" the payload
     into garbage and the poisoned tokens would never land. *)
  let sanitize header =
    Spamlab_email.Header.remove
      (Spamlab_email.Header.remove header "content-transfer-encoding")
      "content-type"
  in
  let emails =
    List.init count (fun _ ->
        let header = sanitize (Rng.choose rng header_pool) in
        Attack_email.make_with_header ~header ~words:guessed)
  in
  { guess_probability = p; guessed; missed; emails }

let train filter plan =
  List.iter
    (fun email ->
      Spamlab_spambayes.Filter.train filter Spamlab_spambayes.Label.Spam email)
    plan.emails

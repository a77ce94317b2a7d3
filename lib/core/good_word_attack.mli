(** An Exploratory Integrity baseline: the classic "good word" attack of
    Lowd & Meek / Wittel & Wu that the paper contrasts itself against
    (§6).  The attacker does {e not} touch the training set; they pad a
    spam message with words the (fixed) filter considers hammy until it
    slips past.

    Included so the laboratory covers both halves of the taxonomy's
    Influence axis and the two attack families can be compared under
    identical conditions. *)

val hammiest_tokens : Spamlab_spambayes.Filter.t -> limit:int -> string list
(** The [limit] known tokens with the lowest f(w) — the attacker's "good
    words".  Only plain body-insertable tokens qualify (tokens carrying
    a header prefix like ["subject:"] or ["from:..."] cannot be forged
    through a message body).  Ties break alphabetically. *)

type result = {
  padded : Spamlab_email.Message.t;
  words_added : int;
  verdict : Spamlab_spambayes.Label.verdict;
  score : float;
}

val evade :
  Spamlab_spambayes.Filter.t ->
  Spamlab_email.Message.t ->
  good_words:string list ->
  max_words:int ->
  result
(** [evade filter spam ~good_words ~max_words] appends good words (in
    batches, re-querying the filter) until the message is no longer
    classified spam or the budget runs out.  Models an attacker with
    query access to the victim's filter. *)

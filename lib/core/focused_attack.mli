(** The focused attack (§3.3): a Targeted Causative Availability attack
    against one specific legitimate email.

    The attacker knows the target's content imperfectly: each word of
    the target is guessed correctly with probability [p].  Attack emails
    contain the guessed words; their headers are copied wholesale from
    randomly chosen spam messages (the §4.1 header restriction).  When
    the victim trains on them as spam, the spam scores of the target's
    tokens rise and the target is filtered on arrival. *)

type plan = {
  guess_probability : float;
  guessed : string list;  (** Target words the attacker guessed. *)
  missed : string list;  (** Target words the attacker failed to guess. *)
  emails : Spamlab_email.Message.t list;
}

val target_words : Spamlab_email.Message.t -> string list
(** The attacker-visible words of the target: subject and body words as
    plain text (header metadata like addresses is not guessable body
    content), restricted to words that survive SpamBayes tokenization
    (3–12 characters) — shorter or longer words could never be poisoned
    through an attack body.  Deduplicated, in first-occurrence order. *)

val craft :
  Spamlab_stats.Rng.t ->
  target:Spamlab_email.Message.t ->
  p:float ->
  count:int ->
  header_pool:Spamlab_email.Header.t array ->
  plan
(** [craft rng ~target ~p ~count ~header_pool] guesses once (the same
    guessed word set is shared by all [count] attack emails, which is
    what lets Figure 4 speak of "tokens included in the attack"), then
    dresses each email in a header drawn from [header_pool].
    @raise Invalid_argument if [p] is outside [0,1], [count < 0], or the
    header pool is empty while [count > 0]. *)

val train :
  Spamlab_spambayes.Filter.t -> plan -> unit
(** Train every attack email into the filter as spam. *)

(** The §3.4 optimal {e constrained} attack the paper leaves as future
    work.

    The attacker's knowledge is a distribution p over the words of the
    victim's future email.  Because token scores do not interact across
    words and the message score I is monotonically non-decreasing in
    each f(w) (the section's two observations), the expected-score
    objective decomposes per word: under a budget of B words per attack
    email, the optimal attack includes the B words with the largest
    appearance probability — every included word independently raises
    the expected score of any future message containing it, and words
    the victim never uses contribute nothing.

    This module derives that attack from a word distribution and, more
    interestingly, from {e noisy} knowledge of it: a real attacker
    estimates p from a sample of the victim's traffic. *)

val select : (string * float) array -> budget:int -> string array
(** [select word_probs ~budget] is the optimal budget-constrained word
    list: the [budget] words of highest probability (ties broken
    alphabetically for reproducibility).  Words with probability 0 are
    never selected even when the budget allows.  @raise
    Invalid_argument if [budget < 0]. *)

val of_language_model :
  Spamlab_corpus.Language_model.t -> budget:int -> string array
(** Perfect distributional knowledge: select from the model's true
    marginals.  With [budget] ≥ the support size this is exactly the
    paper's optimal attack. *)

val estimate_from_sample :
  Spamlab_stats.Rng.t ->
  sample:(Spamlab_stats.Rng.t -> Spamlab_email.Message.t) ->
  messages:int ->
  tokenizer:Spamlab_tokenizer.Tokenizer.t ->
  (string * float) array
(** Attacker-realistic knowledge: estimate word appearance frequencies
    from [messages] observed victim messages (e.g. scraped mailing-list
    posts).  Returns per-token document frequencies.
    @raise Invalid_argument if [messages <= 0]. *)

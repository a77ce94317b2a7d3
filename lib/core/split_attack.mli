(** The stealth variant the paper sketches in §2.2/§4.2: a single
    dictionary email carries ~100k tokens — two orders of magnitude
    above any legitimate message — so trivial size screening would
    flag it.  The attacker's counter-move is to {e split} the word list
    across many normal-sized emails: the same total poison, delivered in
    messages whose sizes blend into the corpus.

    Splitting costs the attacker per-token influence: a word in one of
    k chunks lands in 1/k of the attack emails, so its spam count grows
    k times slower per attack email sent.  At a fixed total token budget
    the poison per word is unchanged — what changes is the number of
    visible messages and each message's size. *)

val chunks : words:string array -> chunk_size:int -> string array array
(** Partition the word list round-robin into ⌈n / chunk_size⌉ chunks of
    nearly equal size.  Round-robin (rather than contiguous slices)
    spreads the high-value head of a frequency-ranked list evenly across
    the chunks, so every attack email carries some head words.
    @raise Invalid_argument if [chunk_size <= 0] or the word list is
    empty. *)

val train :
  Spamlab_spambayes.Filter.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  words:string array ->
  chunk_size:int ->
  copies:int ->
  unit
(** Poison a filter with [copies] full passes over the chunked list —
    i.e. [copies × ⌈n/chunk_size⌉] attack emails, each word trained
    [copies] times, matching the token budget of [copies] unsplit
    dictionary emails. *)

val size_percentile : corpus_sizes:int array -> int -> float
(** Where a message of the given raw-token size falls among the corpus
    message sizes (0–100); the naive anomaly statistic a vigilant admin
    might screen with. *)

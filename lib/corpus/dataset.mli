(** Tokenized datasets and resampling: the bridge between generated
    messages and the learner.  Messages are tokenized once into
    {!example}s; training, attacks and evaluation then operate on token
    arrays (the fast path for cross-validated sweeps). *)

type example = {
  label : Spamlab_spambayes.Label.gold;
  tokens : string array;  (** Distinct tokens, sorted. *)
  ids : int array;
      (** [tokens] interned elementwise ({!Spamlab_spambayes.Intern}) —
          same length, same order.  Training and classification run on
          these; the strings remain for attacks, reporting and
          persistence. *)
  raw_token_count : int;  (** Stream length before dedup (token-volume
                              accounting, §4.2). *)
}

val of_labeled :
  ?pool:Spamlab_parallel.Pool.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  Trec.labeled array ->
  example array
(** Tokenize every message; with [?pool] the per-message work fans over
    the domain pool (pure per message, so jobs-invariant up to intern
    id assignment — compare [tokens], never [ids], across runs). *)

val of_message :
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_spambayes.Label.gold ->
  Spamlab_email.Message.t ->
  example
(** Zero-copy message → example: tokenizers push byte slices which
    intern in place ({!Spamlab_spambayes.Ingest.with_unique_ids}); the
    distinct tokens are materialized as strings shared with the intern
    table, sorted, and paired with their ids — the same [tokens] as
    {!Spamlab_tokenizer.Tokenizer.unique_tokens}, without per-token
    allocation. *)

val tokenize_ids :
  Spamlab_tokenizer.Tokenizer.t -> Spamlab_email.Message.t -> int array * int
(** [tokenize_ids t msg] is the id half of {!of_message}: the sorted
    deduplicated interned ids plus the raw stream length, for callers
    that never need the strings. *)

val of_tokens :
  Spamlab_spambayes.Label.gold ->
  string array ->
  raw_token_count:int ->
  example
(** Build an example from an already-deduplicated token array (attack
    payloads, synthetic fixtures); interns the ids. *)

val train_filter : Spamlab_spambayes.Filter.t -> example array -> unit
(** Train every example into the filter. *)

val classify :
  Spamlab_spambayes.Filter.t -> example -> Spamlab_spambayes.Classify.result

val kfold : k:int -> 'a array -> ('a array * 'a array) array
(** [kfold ~k arr] partitions [arr] into [k] consecutive folds and
    returns [(train, test)] pairs, test being the i-th fold.  The input
    order is the randomization (corpora are generated shuffled).
    @raise Invalid_argument if [k < 2] or [k] exceeds the array
    length. *)

val split : Spamlab_stats.Rng.t -> float -> 'a array -> 'a array * 'a array
(** [split rng frac arr] shuffles a copy and splits at
    [frac × length]. *)

val total_raw_tokens : example array -> int

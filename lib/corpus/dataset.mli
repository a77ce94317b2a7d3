(** Tokenized datasets and resampling: the bridge between generated
    messages and the learner.  SpamBayes learns from the {e set} of
    tokens in a message, so a message is tokenized once into an
    {!example} that holds that set as interned ids; training, attacks
    and evaluation then operate on id arrays (the fast path for
    cross-validated sweeps). *)

type example = {
  label : Spamlab_spambayes.Label.gold;
  ids : int array;
      (** Distinct token ids ({!Spamlab_spambayes.Intern}), ascending.
          Id values follow interning order, which is
          schedule-dependent: compare token strings
          ({!Spamlab_spambayes.Intern.to_string}), never ids, across
          runs. *)
  raw_token_count : int;  (** Stream length before dedup (token-volume
                              accounting, §4.2). *)
}

val tokenize_ids :
  Spamlab_tokenizer.Tokenizer.t -> Spamlab_email.Message.t -> int array * int
(** [tokenize_ids t msg] is the message's distinct token ids, in
    ascending id order, and its token-stream length: how an
    experiment's [Message.t] — generated and attack mail alike —
    becomes ids.
    Tokenizers push byte slices which intern in place
    ({!Spamlab_spambayes.Ingest.with_unique_ids}), so no token string
    is allocated for a token already interned.  Safe to call from pool
    workers. *)

val of_message :
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_spambayes.Label.gold ->
  Spamlab_email.Message.t ->
  example
(** {!tokenize_ids} with its label. *)

val of_labeled :
  ?pool:Spamlab_parallel.Pool.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  Trec.labeled array ->
  example array
(** {!of_message} over every message; with [?pool] the per-message
    work fans over the domain pool (pure per message, so jobs-invariant
    up to intern id assignment). *)

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

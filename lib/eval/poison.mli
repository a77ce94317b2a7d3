(** Shared plumbing for poisoning experiments. *)

val attack_count : train_size:int -> fraction:float -> int
(** Number of attack emails that makes up [fraction] of the {e final}
    training set: ⌈n·f/(1−f)⌋.  At f = 0.01 and n = 10,000 this is 101,
    matching the paper's "101 attack emails (1% of 10,000)".
    @raise Invalid_argument unless 0 ≤ f < 1, or when the count would
    overflow [int] (fractions within float rounding of 1). *)

val base_filter :
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_corpus.Dataset.example array ->
  Spamlab_spambayes.Filter.t
(** A fresh default-options filter trained on the examples. *)

val poisoned :
  Spamlab_spambayes.Filter.t -> payload:int array -> count:int ->
  Spamlab_spambayes.Filter.t
(** Copy the filter and train [count] identical spam messages with the
    given payload, its distinct token ids (as
    {!Spamlab_core.Dictionary_attack.payload} gives them). *)

val score_examples :
  Spamlab_spambayes.Filter.t ->
  Spamlab_corpus.Dataset.example array ->
  (float * Spamlab_spambayes.Label.gold) array
(** Indicator scores with gold labels — verdicts can then be derived
    under any thresholds without rescoring. *)

val sweep :
  Spamlab_spambayes.Filter.t ->
  payload:int array ->
  counts:int list ->
  Spamlab_corpus.Dataset.example array ->
  (float * Spamlab_spambayes.Label.gold) array list
(** [sweep base ~payload ~counts test] is
    [List.map (fun c -> score_examples (poisoned base ~payload ~count:c) test) counts]
    — bit-identically — without copying or retraining anything: each
    test token's base counts and payload membership are looked up once,
    and every grid point is then scored arithmetically from those
    cached counts (training the payload [k] times only shifts payload
    spam counts and the spam total by [k]). *)

val confusion_of_scores :
  Spamlab_spambayes.Options.t ->
  (float * Spamlab_spambayes.Label.gold) array ->
  Confusion.t

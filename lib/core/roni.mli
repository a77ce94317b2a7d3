(** The Reject On Negative Impact (RONI) defense (§5.1).

    Before admitting an incoming message into the training set, measure
    its incremental effect: sample several small train/validation splits
    from the trusted pool, train with and without the candidate, and
    compare how many validation ham messages are still classified as
    ham.  A candidate whose admission costs more than a threshold number
    of ham-as-ham classifications (averaged over trials) is rejected.

    Dictionary-attack emails shift thousands of token scores at once and
    are unmistakable under this test; focused-attack emails target a
    future message and barely move validation performance — the paper's
    explanation of why RONI stops the former and not the latter. *)

type config = {
  train_size : int;  (** |T|, default 20. *)
  validation_size : int;  (** |V|, default 50. *)
  trials : int;  (** Independent (T,V) resamples, default 5. *)
  threshold : float;
      (** Reject when the mean ham-as-ham decrease exceeds this; default
          5.0 (between the paper's observed 4.4 non-attack maximum and
          6.8 attack minimum). *)
}

val default_config : config

type assessment = {
  mean_ham_impact : float;
      (** Average decrease in validation ham classified as ham caused by
          training the candidate (positive = harmful). *)
  per_trial : float array;
  rejected : bool;
}

val assess :
  ?config:config ->
  Spamlab_stats.Rng.t ->
  pool:Spamlab_corpus.Dataset.example array ->
  candidate:int array ->
  assessment
(** [assess rng ~pool ~candidate] measures the candidate's distinct
    token ids (as {!Spamlab_corpus.Dataset.tokenize_ids} gives them;
    always trained as spam, per the contamination assumption)
    against train/validation splits sampled from [pool].  The
    with-candidate side is scored arithmetically from the baseline's
    counts (one spam training shifts candidate members' spam counts and
    N_S by one), so the cost per trial is independent of the candidate's
    size — a dictionary-attack candidate carries tens of thousands of
    tokens.  The pool must contain at least
    [train_size + validation_size] examples and at least one ham
    example.  @raise Invalid_argument otherwise. *)

(** The dynamic threshold defense (§5.2).

    Distribution-shifting attacks raise the scores of ham and spam
    alike, so fixed cutoffs θ0 = 0.15, θ1 = 0.9 stop separating the
    classes — but their {e ranking} survives.  This defense re-derives
    the cutoffs from data: split the (possibly poisoned) training set in
    half, train a filter F on one half, score the other half V, and
    choose thresholds through the utility
    {[ g(t) = N_S,<(t) / (N_S,<(t) + N_H,≥(t)) ]}
    where N_S,<(t) counts spam scoring strictly below [t] and N_H,≥(t)
    ham scoring at or above — the same boundary convention as
    {!Spamlab_spambayes.Classify.verdict_of_indicator}, where a score
    exactly at a cutoff takes the more severe class.  θ0 is placed
    where g ≈ q and θ1 where g ≈ 1 − q, for q ∈ {0.05, 0.10}. *)

type config = {
  quantile : float;  (** q above; the paper tests 0.05 and 0.10. *)
}

val thresholds_of_scores :
  config:config ->
  (float * Spamlab_spambayes.Label.gold * int) array ->
  float * float
(** [(θ0, θ1)] from an already-scored validation set; the [int] is a
    multiplicity (identical attack emails can be scored once and
    weighted).  @raise Invalid_argument on an empty or zero-weight
    set. *)

val thresholds :
  config:config ->
  Spamlab_stats.Rng.t ->
  Spamlab_corpus.Dataset.example array ->
  float * float
(** [(θ0, θ1)] derived from a training set as described above.
    Guarantees 0 ≤ θ0 < θ1 ≤ 1.  @raise Invalid_argument on a training
    set with fewer than 4 examples. *)

(** Tunable parameters of the SpamBayes learner, with the defaults used
    by the paper (§2.3): Robinson prior x = 0.5 with strength s = 0.45,
    ham/spam thresholds θ0 = 0.15 and θ1 = 0.9, and Fisher combining over
    at most 150 tokens whose scores lie outside [0.4, 0.6]. *)

type t = {
  unknown_word_prob : float;  (** Robinson's prior x; default 0.5. *)
  unknown_word_strength : float;  (** Robinson's s; default 0.45. *)
  ham_cutoff : float;  (** θ0: scores ≤ this are ham; default 0.15. *)
  spam_cutoff : float;  (** θ1: scores > this are spam; default 0.9. *)
  max_discriminators : int;  (** |δ(E)| cap; default 150. *)
  minimum_prob_strength : float;
      (** Minimum |f(w) − 0.5| for a token to enter δ(E); default 0.1
          (the (0.4, 0.6) exclusion band). *)
}

val default : t

val unknown_word_is_clue : t -> bool
(** Whether a token with no counts can enter δ(E): it scores exactly
    [unknown_word_prob], so this is |x − 0.5| ≥ [minimum_prob_strength],
    the selection's own test.  False under {!default}; when false, a
    token the db has never counted changes no score, verdict or clue,
    so scoring may skip it. *)

val with_cutoffs : t -> ham:float -> spam:float -> t
(** Used by the dynamic-threshold defense to install data-driven
    thresholds.  Validates the whole result: 0 ≤ x ≤ 1, s > 0,
    0 ≤ θ0 < θ1 ≤ 1, a positive discriminator cap and
    0 ≤ min strength ≤ 0.5.  @raise Invalid_argument otherwise. *)

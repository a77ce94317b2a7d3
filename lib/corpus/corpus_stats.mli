(** Descriptive statistics of a generated corpus — the evidence that the
    TREC-2005 stand-in has the distributional properties the paper's
    attacks exploit.

    The quantities reported are exactly the ones DESIGN.md claims the
    generator preserves:

    - heavy-tailed message lengths (median well below mean);
    - sub-linear vocabulary growth (Heaps' law): distinct tokens keep
      appearing throughout the corpus, so every message carries rare
      tokens;
    - a long singleton tail in the token frequency spectrum — the
      strong discriminators that poisoning flips;
    - partial ham/spam vocabulary overlap — the reason a one-class word
      source (a dictionary) can reach the other class's mail. *)

type t = {
  messages : int;
  ham : int;
  spam : int;
  raw_tokens : int;  (** Total token instances. *)
  distinct_tokens : int;
  mean_tokens_per_message : float;
  median_tokens_per_message : float;
  p95_tokens_per_message : float;
  singleton_fraction : float;
      (** Fraction of distinct tokens appearing in exactly one
          message. *)
  rare_fraction : float;  (** Appearing in at most three messages. *)
  ham_vocabulary : int;
  spam_vocabulary : int;
  shared_vocabulary : int;  (** Distinct tokens seen in both classes. *)
  heaps_curve : (int * int) list;
      (** (messages processed, distinct tokens so far) at ten
          checkpoints. *)
}

val measure : Dataset.example array -> t
(** Single pass over the tokenized corpus, counting token ids: a
    token's document frequency and classes are those of its id.
    @raise Invalid_argument on an empty corpus. *)

val render : t -> string

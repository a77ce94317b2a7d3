(** Three-way confusion accounting.

    SpamBayes emits ham/unsure/spam, so the evaluation tracks a 2×3
    matrix.  The paper's headline quantities are the ham rows: ham
    classified as spam (false positives proper) and ham classified as
    spam {e or} unsure (the user-visible damage, §2.1). *)

type t

val create : unit -> t

val add : t -> Spamlab_spambayes.Label.gold -> Spamlab_spambayes.Label.verdict -> unit

val merge : t -> t -> t
(** Sum of two matrices (neither input is modified). *)

val cells : t -> int array
(** The six counts in row-major order
    [[|ham->ham; ham->unsure; ham->spam; spam->ham; spam->unsure;
    spam->spam|]] — the checkpoint wire encoding. *)

val of_cells : int array -> t option
(** Inverse of {!cells}; [None] unless exactly six non-negative
    counts. *)

val count :
  t -> Spamlab_spambayes.Label.gold -> Spamlab_spambayes.Label.verdict -> int

val ham_as_spam_rate : t -> float
(** Fraction of ham classified spam; 0 when no ham was seen. *)

val ham_as_unsure_rate : t -> float
val ham_misclassified_rate : t -> float
(** Ham classified spam or unsure. *)

val spam_as_ham_rate : t -> float
val spam_as_unsure_rate : t -> float
val spam_misclassified_rate : t -> float

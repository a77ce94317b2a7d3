(** Token spam scores: Robinson's smoothed probability (paper Eq. 1–2).

    The raw score
    {[ PS(w) = (N_H · N_S(w)) / (N_H · N_S(w) + N_S · N_H(w)) ]}
    is the spam frequency of [w] normalized by class priors, and
    {[ f(w) = (s·x + N(w)·PS(w)) / (s + N(w)) ]}
    shrinks it toward the prior [x] with strength [s], where
    N(w) = N_S(w) + N_H(w). *)

val raw : Token_db.t -> string -> float option
(** [raw db w] is PS(w), or [None] when the token has never been seen in
    either class (the ratio is undefined); also [None] when one class
    has no training messages at all and the other ratio is zero. *)

val smoothed : Options.t -> Token_db.t -> string -> float
(** [smoothed options db w] is f(w) ∈ (0,1).  Unknown tokens score
    exactly the prior [options.unknown_word_prob]. *)

val smoothed_id : Options.t -> Token_db.t -> int -> float
(** [smoothed] by interned token id — the hot path: the same float
    sequence, with the two string lookups replaced by one
    {!Token_db.slot} probe that yields both counts. *)

val smoothed_counts :
  Options.t -> spam:int -> ham:int -> nspam:int -> nham:int -> float
(** f(w) as a pure function of the token's per-class counts and the
    class totals — exactly the arithmetic [smoothed] performs after its
    DB lookups, bit for bit.  Lets callers that already hold the counts
    (or can derive them, as the poisoning sweep does) score without
    touching the token DB. *)

val strength : Options.t -> Token_db.t -> string -> float
(** |f(w) − 0.5| — the discriminator-selection key. *)

val is_significant : Options.t -> Token_db.t -> string -> bool
(** Whether the token clears the minimum-strength band and may enter
    δ(E). *)

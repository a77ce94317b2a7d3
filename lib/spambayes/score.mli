(** Token spam scores: Robinson's smoothed probability (paper Eq. 1–2).

    The raw score
    {[ PS(w) = (N_H · N_S(w)) / (N_H · N_S(w) + N_S · N_H(w)) ]}
    is the spam frequency of [w] normalized by class priors, and
    {[ f(w) = (s·x + N(w)·PS(w)) / (s + N(w)) ]}
    shrinks it toward the prior [x] with strength [s], where
    N(w) = N_S(w) + N_H(w).  A token never seen in either class has no
    PS(w) and scores exactly [x]. *)

val smoothed_id : Options.t -> Token_db.t -> int -> float
(** [smoothed_id options db id] is f(w) ∈ (0,1) of the token with
    interned id [id]: one {!Token_db.slot} probe yields both counts.
    An id [db] does not hold scores exactly the prior
    [options.unknown_word_prob]. *)

val smoothed_counts :
  Options.t -> spam:int -> ham:int -> nspam:int -> nham:int -> float
(** f(w) as a pure function of the token's per-class counts and the
    class totals — exactly the arithmetic [smoothed_id] performs after
    its db lookup, bit for bit.  Lets callers that already hold the
    counts (or can derive them, as the poisoning sweep does) score
    without touching the token DB. *)

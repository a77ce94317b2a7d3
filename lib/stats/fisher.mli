(** Fisher's method for combining independent significance tests
    (Fisher 1948), the statistical core of SpamBayes' message score.

    Given n p-values p_i from independent tests of the same null
    hypothesis, the statistic −2 Σ ln p_i is chi-square distributed with
    2n degrees of freedom under the null.  SpamBayes applies it twice per
    message — once to the token scores f(w), giving H(E), and once to
    their complements 1 − f(w), giving S(E) — and combines the two tails
    (paper Eq. 3–4). *)

val indicator : float array -> int -> float
(** [indicator fs n] is the message score I(E) = (1 + H − S)/2 ∈ [0,1]
    (Eq. 3) of the token scores [fs.(0 .. n-1)], folded left to right:
    0 is maximally hammy, 1 maximally spammy, and 0.5 when [n = 0] (no
    evidence).  Each score is clamped away from 0 and 1 before its
    logarithm, so a score of exactly 0 or 1 (SpamBayes never produces
    one, attack code paths may) keeps the statistic finite.  The
    scoring pipeline ({!Spamlab_spambayes.Classify}) feeds it the
    selected clue scores straight from its scratch buffer.
    @raise Invalid_argument if [n] is outside [0, Array.length fs] or a
    score lies outside [0,1]. *)

(** Random-variate samplers over a {!Rng.t}.

    These drive the synthetic corpus generator: Zipf-distributed token
    draws, categorical choices over vocabularies (via Walker's alias
    method, O(1) per draw), and the small discrete distributions used for
    message lengths and header variation. *)

type categorical
(** A prepared discrete distribution over [0, n). *)

val categorical : float array -> categorical
(** [categorical weights] prepares a distribution proportional to
    [weights] using the alias method.  Weights must be non-negative with
    a positive sum.  @raise Invalid_argument otherwise. *)

val categorical_draw : categorical -> Rng.t -> int
(** O(1) draw of an index distributed as the prepared weights. *)

val categorical_support : categorical -> int
(** Number of categories. *)

val categorical_prob : categorical -> int -> float
(** [categorical_prob c i] is the normalized probability of category [i]
    (for tests and analytical attack planning). *)

val zipf : ?exponent:float -> int -> categorical
(** [zipf n] prepares a Zipf distribution over ranks [0, n):
    P(k) ∝ 1/(k+1)^exponent.  Default [exponent] is 1.1, a standard fit
    for natural-language unigram frequencies.
    @raise Invalid_argument if [n <= 0] or [exponent <= 0]. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Number of successes among [n] Bernoulli([p]) trials.  Exact (summed)
    for small [n]; BTPE-free inversion elsewhere — adequate for the
    laboratory's n ≤ 10^6. *)

val poisson : Rng.t -> float -> int
(** Poisson draw; Knuth multiplication for small means, normal
    approximation with continuity correction above mean 64. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian draw via Box–Muller.  @raise Invalid_argument if
    [std < 0]. *)

val log_normal : Rng.t -> mu:float -> sigma:float -> float
(** exp of a N(mu, sigma) draw — the laboratory's email-length model
    (heavy right tail, strictly positive). *)

val geometric : Rng.t -> float -> int
(** [geometric rng p] is the number of failures before the first success,
    p in (0,1]. *)

val round_stochastic : Rng.t -> float -> int
(** [round_stochastic rng x] rounds [x] to an adjacent integer with
    probability proportional to proximity; unbiased. *)

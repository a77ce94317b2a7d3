(** Message scoring: discriminator selection δ(E) and the Fisher-combined
    indicator I(E) (paper Eq. 3–4, §2.3 fn. 3).

    From a message's distinct tokens, the at-most-150 tokens with scores
    furthest from 0.5 and outside the (0.4, 0.6) band are selected; their
    scores are combined through two chi-square tails into
    I(E) = (1 + H − S)/2 ∈ [0,1], then thresholded into a three-way
    verdict.

    A verdict needs only I(E), so the scoring entry points
    ({!score_engine}, {!score_engine_sub}, {!score_probs}) return no
    clues and allocate nothing per candidate or winner: a message's
    minor words do not depend on how many tokens it has or how many
    win.  {!explain} runs the same selection and then names the
    winners. *)

type clue = { token : string; score : float }
(** One selected discriminator and its f(w). *)

type result = {
  indicator : float;  (** I(E) ∈ [0,1]; 1 is maximally spammy. *)
  verdict : Label.verdict;
  clues : clue list;
      (** δ(E) sorted by descending |f − 0.5|, from {!explain}; empty
          from every other entry point. *)
}

type engine
(** A scoring engine: options plus where each interned token's
    smoothed probability comes from, one of {!Prob_cache}'s loops.
    Every engine feeds the one selection/Fisher pipeline,
    {!score_probs}; all variants are bit-identical in output, differing
    only in where the per-token float comes from. *)

val engine : Options.t -> Token_db.t -> engine
(** The uncached reference: every probability recomputed from counts
    ({!Prob_cache.collect_uncached}). *)

val engine_cached : Prob_cache.t -> engine
(** Probabilities served from a generation-stamped cache
    ({!Prob_cache.collect}); the filter/daemon hot path. *)

val engine_overlay : Prob_cache.t -> Token_db.t -> engine
(** Tenant fast path: [engine_overlay prior_cache overlay_db] scores
    [overlay_db] (a copy-on-write overlay of the cache's db, the
    shared global prior) through {!Prob_cache.collect_overlay}.  Ids
    outside the overlay's dirty set — the overwhelming majority,
    overlays are tiny by design — hit the shared prior cache while the
    message totals agree; diverging ids (and everything, once the
    tenant has trained and its totals shifted) recompute from the
    overlay's counts.  The overlay must not be mutated during a
    scoring call. *)

val engine_options : engine -> Options.t
(** The options the engine scores under. *)

val score_engine : engine -> int array -> result
(** Full pipeline on pre-interned distinct-token ids through an
    engine — the one scoring entry point; [clues] is empty.
    [score_engine (engine options db)] equals, bit for bit,
    [score_engine] over any cached variant of the same (options,
    db). *)

val score_engine_sub : engine -> int array -> int -> result
(** [score_engine_sub e ids n] is {!score_engine} on
    [Array.sub ids 0 n] without the copy. *)

val explain : engine -> int array -> int -> result
(** [explain e ids n] is [score_engine_sub e ids n] with δ(E) named:
    the same selection and Fisher fold, so the same indicator and
    verdict bit for bit, and then one clue record per winner, in
    selection order.  The one entry point that builds clues; it backs
    [Filter.classify] (and so [spamlab classify --clues]). *)

val verdict_of_indicator : Options.t -> float -> Label.verdict
(** Thresholding with SpamBayes boundary semantics — a score exactly at
    a cutoff takes the more severe class: I < θ0 ham, θ0 ≤ I < θ1
    unsure, I ≥ θ1 spam. *)

val score_probs : Options.t -> int array -> float array -> int -> result
(** [score_probs options ids probs n] is the selection/Fisher stage on
    its own, for callers that compute each token's f(w) themselves
    (RONI and the poisoning sweep score what-if counts through
    {!Prob_cache.smoothed_counts}): [probs.(i)] is the probability of
    [ids.(i)] for [i < n].  It keeps the tokens with
    |f − 0.5| ≥ [minimum_prob_strength], orders them by descending
    strength with ties broken by token bytes, takes the first
    [max_discriminators] and Fisher-combines them in that order; an
    empty δ(E) scores 0.5.  [clues] is empty.  Equal ids must carry
    equal probabilities.  [probs] is read, never written.
    [score_engine_sub e ids n] ≡ [score_probs] over the probabilities
    [e] yields for [ids].
    @raise Invalid_argument if [n] exceeds either array's length. *)

(** Message scoring: discriminator selection δ(E) and the Fisher-combined
    indicator I(E) (paper Eq. 3–4, §2.3 fn. 3).

    From a message's distinct tokens, the at-most-150 tokens with scores
    furthest from 0.5 and outside the (0.4, 0.6) band are selected; their
    scores are combined through two chi-square tails into
    I(E) = (1 + H − S)/2 ∈ [0,1], then thresholded into a three-way
    verdict. *)

type clue = { token : string; score : float }
(** One selected discriminator and its f(w). *)

type result = {
  indicator : float;  (** I(E) ∈ [0,1]; 1 is maximally spammy. *)
  verdict : Label.verdict;
  clues : clue list;  (** δ(E) sorted by descending |f − 0.5|. *)
}

type engine
(** A scoring engine: options plus a way to obtain each interned
    token's smoothed probability.  The selection/Fisher pipeline is
    implemented once over this; all variants are bit-identical in
    output, differing only in where the per-token float comes from. *)

val engine : Options.t -> Token_db.t -> engine
(** The uncached reference: every probability recomputed from counts
    via {!Score.smoothed_id}. *)

val engine_cached : Prob_cache.t -> engine
(** Probabilities served from a generation-stamped cache (see
    {!Prob_cache}); the filter/daemon hot path. *)

val engine_overlay : Prob_cache.t -> Token_db.t -> engine
(** Tenant fast path: [engine_overlay prior_cache overlay_db] scores
    [overlay_db] (a copy-on-write overlay of the cache's db, the
    shared global prior).  Ids outside the overlay's dirty set — the
    overwhelming majority, overlays are tiny by design — hit the
    shared prior cache when the message totals agree; diverging ids
    (and everything, once the tenant has trained and its totals
    shifted) recompute from the overlay's counts.  The overlay must
    not be mutated while the engine is in use; build a fresh engine
    per locked access. *)

val score_engine : engine -> int array -> result
(** Full pipeline on pre-interned distinct-token ids through an
    engine.  [score_ids options db] ≡ [score_engine (engine options
    db)] — and, bit-for-bit, [score_engine] over any cached variant of
    the same (options, db). *)

val score_engine_sub : engine -> int array -> int -> result
(** [score_engine_sub e ids n] is {!score_engine} on
    [Array.sub ids 0 n] without the copy. *)

val select_discriminators :
  Options.t -> Token_db.t -> string array -> clue list
(** δ(E) for a distinct-token array: filters by minimum strength, sorts
    by descending strength (ties broken by token name for
    reproducibility), truncates to [max_discriminators]. *)

val indicator_of_clues : clue list -> float
(** I(E) from selected clues; 0.5 for an empty δ(E) (no evidence). *)

val verdict_of_indicator : Options.t -> float -> Label.verdict
(** Thresholding with SpamBayes boundary semantics — a score exactly at
    a cutoff takes the more severe class: I < θ0 ham, θ0 ≤ I < θ1
    unsure, I ≥ θ1 spam. *)

val score_tokens : Options.t -> Token_db.t -> string array -> result
(** Full pipeline on a distinct-token array.  Interns the tokens (one
    batch) and defers to {!score_ids}; results are identical either
    way. *)

val score_ids : Options.t -> Token_db.t -> int array -> result
(** Full pipeline on pre-interned distinct-token ids — the hot path for
    datasets that carry id arrays ([Dataset.example]). *)

val score_clues : Options.t -> clue list -> result
(** The scoring pipeline on candidate clues whose f(w) was computed by
    the caller (e.g. from cached counts via {!Score.smoothed_counts}):
    filters by minimum strength, selects, Fisher-combines.  Candidates
    may arrive in any order and may or may not be pre-filtered — the
    result is identical to [score_tokens] on the same token → score
    mapping. *)

val score_ids_reference : Options.t -> Token_db.t -> int array -> result
(** The pre-cache scoring path, kept verbatim: uncached probabilities,
    eager per-candidate clue materialization, list-based selection.
    Semantically ≡ {!score_ids}; exists so the differential test suite
    and [bench classify] compare every engine (and the scratch-array
    selection) against unchanged baseline code rather than against
    themselves. *)

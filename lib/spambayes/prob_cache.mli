(** The scoring kernel: Robinson's smoothed token probability f(w)
    (paper Eq. 1–2), the per-token loop of every scoring engine, and
    the generation-stamped cache two of those loops read.

    f(w) shrinks the class-normalized spam frequency
    {[ PS(w) = (N_S(w)/N_S) / (N_S(w)/N_S + N_H(w)/N_H) ]}
    toward the prior [x] with strength [s]:
    {[ f(w) = (s·x + N(w)·PS(w)) / (s + N(w)) ]}
    where N(w) = N_S(w) + N_H(w).  A token seen in neither class scores
    exactly [x].

    {!collect_uncached}, {!collect} and {!collect_overlay} write one
    probability per id into the caller's float array with the formula
    inlined, so scoring allocates nothing per token.  All three agree
    with {!smoothed_id} bit for bit.

    {2 Keying and invalidation}

    A cache binds one {!Options.t} to one {!Token_db.t} instance.  A
    private cache (the default) is an id table like {!Token_db}'s, each
    slot an id, a generation stamp and a probability, so it is sized by
    the tokens it has scored.  A slot is valid iff its stamp equals the
    db's current {!Token_db.generation}.  Invalidation is wholesale:
    every db mutation bumps the generation, and must, because
    train/untrain change the message totals N_S/N_H which enter {e
    every} token's f(w).  Refill is lazy per token (a stale slot is
    restamped in place), so an interleaved train/classify workload
    pays O(tokens actually rescored), not O(vocabulary) per train.

    {2 Sharing and domain safety}

    [shared:true] caches serve concurrent readers (the daemon's
    published snapshot fanned across the pool, the tenant store's
    global prior).  They stay dense — one float per interned id, sized
    to the intern table at creation, which their dbs cover — with NaN
    as the "never computed" sentinel.  They are {e single-generation}:
    never grown or restamped, and read only while the db remains at
    its creation generation (both dbs are immutable by contract);
    after that they score uncached.  So every data race is benign: a
    slot only ever holds NaN or the one correct probability.  Private
    caches grow on demand and must stay single-domain.

    {2 Escape hatches}

    With [SPAMLAB_NO_PROB_CACHE=1] in the environment (read once at
    startup) every loop scores uncached; ci.sh diffs cached against
    uncached experiment bytes with it.  A fill checks fault site
    [score.cache.fill]: a transient fault falls through to the
    uncached compute without touching the slot, byte-identically.
    Counters [spambayes.prob_cache_hits] and [_fills] count cache
    reads. *)

val smoothed_counts :
  Options.t -> spam:int -> ham:int -> nspam:int -> nham:int -> float
(** f(w) ∈ (0,1) of a token with per-class counts [spam] and [ham]
    under class totals [nspam] and [nham]: the arithmetic of every
    loop, for callers that score what-if counts (RONI, the poisoning
    sweep). *)

val smoothed_id : Options.t -> Token_db.t -> int -> float
(** f(w) of the token with interned id [id], from one
    {!Token_db.slot} probe; an id [db] does not hold scores the prior.
    The scalar form, for single-token reports. *)

val collect_uncached :
  Options.t -> Token_db.t -> int array -> int -> float array -> unit
(** [collect_uncached options db ids n out] stores
    [smoothed_id options db ids.(i)] into [out.(i)] for [0 <= i < n]. *)

type t

val create : ?shared:bool -> Options.t -> Token_db.t -> t
(** [create options db] — a cold cache over [db].  [shared] (default
    false) selects the fixed-size single-generation variant safe for
    concurrent readers of an immutable [db]; see above. *)

val collect : t -> int array -> int -> float array -> unit
(** [collect t ids n out] is [collect_uncached] over the cache's
    options and db, each probability read from its slot when valid and
    computed into it otherwise. *)

val collect_overlay : t -> Token_db.t -> int array -> int -> float array -> unit
(** [collect_overlay t db ids n out] is [collect_uncached (options t)
    db ids n out] for [db] a copy-on-write overlay of the cache's db
    (a tenant over the store's prior).  While [db]'s message totals
    equal the prior's, an id outside [db]'s overlay reads the prior's
    probability from [t], as {!collect} would; the ids the overlay
    holds are computed.  Only a shared [t] is read this way: over a
    private one, every id is computed. *)

val options : t -> Options.t

val disabled : bool
(** True when [SPAMLAB_NO_PROB_CACHE=1] was set at startup. *)

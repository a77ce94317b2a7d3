(** Generation-stamped per-token probability cache: the classify hot
    path reads one float per token instead of recomputing
    {!Score.smoothed_id} (two count lookups plus ~10 float ops) per
    occurrence.

    {2 Keying and invalidation}

    A cache binds one {!Options.t} to one {!Token_db.t} instance.  A
    private cache (the default) is an id table like {!Token_db}'s, each
    slot an id, a generation stamp and a probability, so it is sized by
    the tokens it has scored.  A slot is valid iff its stamp equals the
    db's current {!Token_db.generation} — one int compare.
    Invalidation is wholesale by construction: every db mutation bumps
    the generation, and must, because train/untrain change the global
    message totals N_S/N_H which enter the smoothing denominator of
    {e every} token.  Refill is lazy per token (a stale slot is
    restamped in place), so an interleaved train/classify workload
    pays O(tokens actually rescored), not O(vocabulary) per train.

    {2 Sharing and domain safety}

    [shared:true] caches serve concurrent readers (the daemon's
    published snapshot fanned across the pool, the tenant store's
    global prior).  They stay dense — one float per interned id, sized
    to the intern table at creation, which their dbs cover — with NaN
    as the "never computed" sentinel.  They are {e single-generation}:
    never grown or restamped, valid only while the db remains at its
    creation generation (both dbs are immutable by contract — the
    daemon republishes a fresh snapshot + cache after training).  Under
    that restriction every data race is benign: a slot is fixed by its
    id and only ever holds NaN or the one correct probability, so
    racing fills write the same bytes and a torn read of NaN just
    recomputes.  Private caches grow on demand and must stay
    single-domain.

    {2 Escape hatches}

    Setting [SPAMLAB_NO_PROB_CACHE=1] in the environment makes every
    {!get} compute uncached (read once at startup) — ci.sh diffs
    cached vs uncached experiment bytes with it.  The fill path checks
    fault site [score.cache.fill]: a transient fault falls through to
    the uncached compute without touching the slot, byte-identically. *)

type t

val create : ?shared:bool -> Options.t -> Token_db.t -> t
(** [create options db] — a cold cache over [db].  [shared] (default
    false) selects the fixed-size single-generation variant safe for
    concurrent readers of an immutable [db]; see above. *)

val get : t -> int -> float
(** [get t id] = [Score.smoothed_id (options t) (db t) id], served
    from the cache when the slot's stamp matches the db's current
    generation, recomputed (and cached) otherwise.  Bit-identical to
    the uncached compute in every case. *)

val collect : t -> int array -> int -> float array -> unit
(** [collect t ids n out] stores [get t ids.(i)] into [out.(i)] for
    [0 <= i < n] — the batched form the scoring loop uses.  Same
    results as [n] calls to {!get}, but the generation and kill-switch
    checks are hoisted out of the loop and each hit is stored unboxed
    (no per-token call or float boxing). *)

val options : t -> Options.t
val db : t -> Token_db.t

val disabled : bool
(** True when [SPAMLAB_NO_PROB_CACHE=1] was set at startup. *)

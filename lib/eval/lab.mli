(** Shared experimental setup: one laboratory instance fixes the seed,
    the generative corpus (vocabulary, language models, correspondent
    pools) and the tokenizer, and lazily derives the attacker word
    sources from the same vocabulary — so every experiment in a run
    attacks the same simulated world. *)

type t

val create :
  ?seed:int -> ?scale:float -> ?jobs:int -> ?checkpoint:Checkpoint.t ->
  unit -> t
(** Default seed 42, scale 1.0 (paper sizes — see {!Params}), jobs
    {!Spamlab_parallel.default_jobs} (the [SPAMLAB_JOBS] environment
    variable, else the machine's recommended domain count).  Results
    are identical at every [jobs] value.  [checkpoint] (default none)
    makes {!checkpointed_map} fan-outs resumable; a lab without one
    behaves exactly as before. *)

val scale : t -> float
val config : t -> Spamlab_corpus.Generator.config
val tokenizer : t -> Spamlab_tokenizer.Tokenizer.t

val pool : t -> Spamlab_parallel.Pool.t
(** The lab's domain pool, created on first use. *)

val shutdown : t -> unit
(** Join the pool's worker domains (no-op if none were started).  The
    pool is recreated on demand afterwards. *)

val rng : t -> string -> Spamlab_stats.Rng.t
(** Named independent stream (see {!Spamlab_stats.Rng.split_named}). *)

val aspell : t -> size:int -> string array
val usenet_top : t -> size:int -> string array
val optimal_words : t -> string array
(** Support of the ham language model — the §3.4 optimal word source. *)

val corpus :
  t -> name:string -> size:int -> spam_fraction:float ->
  Spamlab_corpus.Dataset.example array
(** The labeled, tokenized inbox of the stream [name]: generated from
    the rng child [rng t name] and memoized on
    (name, size, spam_fraction, tokenizer), so two requests for the
    same world — within one experiment or across a [bench all] run —
    tokenize it once.  The returned array is a fresh copy (callers
    shuffle in place) sharing the immutable examples.  Cache traffic
    is visible as the [lab.corpus_cache.hit]/[.miss] counters.  Safe
    to call from pool workers; generation and tokenization fan over
    the lab pool, with identical output at every jobs count. *)

val corpus_messages :
  t -> name:string -> size:int -> spam_fraction:float ->
  Spamlab_corpus.Trec.labeled array
(** Untokenized variant of {!corpus}; shares its message-level cache
    entry (so [corpus] then [corpus_messages] of one world generates
    once). *)

val checkpointed_map :
  t ->
  stage:string ->
  ?dim:string ->
  ?prepare:('a array -> unit) ->
  encode:('b -> string) ->
  decode:('a -> string -> 'b option) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** {!Spamlab_parallel.Pool.map_array} over the lab pool, made
    resumable when the lab has a checkpoint.  Each element's result is
    recorded under key ["<stage>/<index>"] — ["<stage>/<dim>/<index>"]
    when [dim] is given, for sweeps that vary a dimension beyond the
    (seed, scale) pinned in the checkpoint header (two sweep points
    would otherwise collide; omitting [dim] keeps old checkpoint files
    readable) — as [encode result]; on a later run, recorded cells are
    restored via [decode item value] (bumping [checkpoint.hit]) and
    only the rest are computed ([checkpoint.miss]).  [decode] returning [None] — corrupt or
    stale value — falls back to recomputation.  [prepare] runs once
    before any computation with exactly the items that will be
    computed (the full array when there is no checkpoint): hang
    expensive shared setup there so a fully-restored sweep skips it.
    Requires [f] pure per element with named-stream randomness, like
    every pool map; given that, a resumed run returns byte-identical
    results to an uninterrupted one. *)

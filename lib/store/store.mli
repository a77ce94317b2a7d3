(** Multi-tenant token store: per-user Bayes state behind one
    abstraction, at mailbox counts the single-filter pipeline cannot
    reach.

    Production SpamBayes/SpamAssassin deployments keep {e per-user}
    token statistics (cf. SpamAssassin's [bayes_token]/[bayes_vars]
    tables keyed by user id); everything upstream of this module — the
    daemon, the tenants experiment, the store bench — addresses Bayes
    state as [(user, token)], and this module decides where that state
    lives:

    - {b Memory backend} ([`Memory]): a hashtable of full
      {!Spamlab_spambayes.Token_db} copy-on-write overlays, no
      persistence, no eviction.  The semantic reference — the
      differential test suite asserts the sharded backend produces
      byte-for-byte identical classify/train/untrain behaviour.

    - {b Sharded backend} ([`Sharded dir]): users are hashed (FNV-1a)
      to [N] shards.  Each shard owns two files in [dir]:

      {ul
      {- [shard-NNNN.seg] — the {e segment}: every persisted tenant's
         absolute state (its own message totals and the counts of every
         token where it differs from the shared global prior), sorted
         by user then token, CRC-32-guarded by a footer exactly like
         the v3 token-db format, and replaced only by atomic
         temp+fsync+rename.}
      {- [shard-NNNN.journal] — an append-only op log
         ({!Spamlab_spambayes.Journal}, the implementation the daemon's
         shared db journal also uses): each TRAIN/UNTRAIN lands
         here as one per-line-CRC'd record; [C] commit markers bound
         the durable prefix.  On open the journal is truncated back to
         its last commit marker — an uncommitted suffix was never
         acknowledged to any client, and the daemon's replay contract
         re-delivers it — and replayed over the segment.  The journal
         header records the CRC of the segment it applies over, so a
         crash {e between} the two renames of a compaction leaves a
         journal that no longer matches its segment and is discarded
         instead of double-applied.}}

      Hot users are held in a per-shard LRU of copy-on-write overlays
      over one shared global-prior [Token_db] — materializing a tenant
      costs O(|its touched tokens|) (one segment-extent read plus a
      replay of its journaled ops), never a full database copy.  When
      a shard's journal outgrows [compact_ratio] × its segment, commit
      folds the journal into a fresh segment.

    {2 Fault sites}

    [store.journal.append] fires before an op record is buffered (and
    before the overlay mutates), [store.compact] before a compaction
    touches anything, [store.evict] before an LRU eviction.  A crash
    kind at any of them leaves a store that the next open recovers to
    the last committed state.

    {2 Concurrency}

    All tenant operations serialize per shard (one mutex each);
    distinct shards proceed in parallel.  The store itself never
    spawns domains.

    {2 Determinism}

    Nothing wall-clock or schedule-dependent reaches the files: no
    timestamps, no generation counters, users and rows in byte order of
    their strings (rows through
    {!Spamlab_spambayes.Token_db.render_rows}, whatever the interning
    order).  Two runs that performed the same committed ops and then
    compacted hold byte-identical segments, journals, manifest, and
    prior — the property ci.sh's crash-and-replay and cross-jobs gates
    check. *)

module Token_db := Spamlab_spambayes.Token_db

type t

type backend = [ `Memory | `Sharded of string ]

type config = {
  backend : backend;
  shards : int;  (** Segment/journal pairs; fixed at store creation. *)
  cache : int;
      (** Max cached overlays across all shards (each shard gets
          [max 1 (cache / shards)] slots). *)
  compact_ratio : float;
      (** Commit compacts a shard when
          [journal bytes > ratio * max 1 segment bytes] (default
          {!Spamlab_spambayes.Journal.compact_ratio}). *)
}

val default_config : config
(** [`Memory], 16 shards, 4096 cached overlays, ratio 4.0. *)

val open_store :
  ?options:Spamlab_spambayes.Options.t ->
  ?prior:Token_db.t ->
  config ->
  (t, string) result
(** Open (or create) a store.  The global prior — the state every
    tenant starts from — is [?prior] (default empty) when creating;
    reopening an existing sharded store loads the prior persisted in
    [dir/prior.db] and {e ignores} [?prior].  [?options] (default
    {!Spamlab_spambayes.Options.default}) parameterizes the shared
    prior probability cache behind {!with_user_engine}; pass the same
    options the engines will be scored under.  Shard files are read
    lazily, on the first operation that touches the shard; a corrupt
    segment or journal header surfaces as [Sys_error] from that
    operation (run [spamlab db verify] on the directory).  [Error] on
    an unusable directory or manifest. *)

val close : t -> unit
(** {!commit} (without forced compaction), then release descriptors.
    The store must not be used afterwards. *)

val prior : t -> Token_db.t
(** The shared global prior.  Must not be mutated. *)

val with_user : t -> string -> (Token_db.t -> 'a) -> 'a
(** [with_user t user f] runs [f] on [user]'s overlay database under
    the shard lock — the read path (classify, score inspection).  [f]
    must not retain or mutate the db. *)

val with_user_engine :
  t -> string -> (Spamlab_spambayes.Classify.engine -> 'a) -> 'a
(** [with_user t user] handing [f] a scoring engine instead of the raw
    overlay db: tokens where the tenant does not diverge from the
    global prior (the overwhelming majority — overlays are tiny by
    design) read the store's shared prior probability cache; diverging
    tokens, and every token once the tenant's own message totals have
    shifted, recompute from the overlay counts.  Results are
    bit-identical to scoring the overlay db uncached.  Same locking
    contract as {!with_user}; the engine must not escape [f]. *)

(** {2 Training}

    Every op is journaled as one record built by
    {!Spamlab_spambayes.Journal.of_ids}: the message's tokens in byte
    order of their strings ({!Spamlab_spambayes.Intern.byte_order}), so
    a record's bytes depend neither on the order of the ids given nor on
    interning order.  Ops mutate only the user's overlay, never the
    prior. *)

val train_ids :
  t -> user:string -> Spamlab_spambayes.Label.gold -> int array -> unit
(** Journal and apply one training message for [user], given as the
    message's {e distinct} interned ids in any order (as
    {!Spamlab_spambayes.Ingest.unique_ids_raw} yields them) — the
    daemon's write path. *)

val train_many_ids :
  t -> user:string -> Spamlab_spambayes.Label.gold -> int array -> int -> unit
(** [k] identical messages in one op record (the poisoning pattern);
    [k = 0] journals and applies nothing.
    @raise Invalid_argument if [k < 0]. *)

val untrain_ids :
  t -> user:string -> Spamlab_spambayes.Label.gold -> int array -> unit
(** Inverse of {!train_ids}.  Validation precedes any mutation {e and}
    any journaling, so a failed untrain leaves both memory and disk
    untouched.
    @raise Invalid_argument if the message was never trained. *)

val train : t -> user:string -> Spamlab_spambayes.Label.gold -> string array -> unit
(** {!train_ids} on token strings, interned once up front.  Duplicates
    are collapsed (a message contributes each token once, whatever its
    occurrence count), and the record lists the tokens in byte order
    like every other. *)

val commit : t -> unit
(** Durability point: flush every shard's buffered op records, append
    commit markers, fsync, and compact any shard whose journal exceeds
    [compact_ratio].  No-op on the memory backend. *)

val compact_all : t -> unit
(** {!commit}, then fold {e every} shard's journal into its segment
    regardless of ratio — the canonical-bytes form (a daemon's clean
    shutdown, the end of an experiment).  Initializes every shard, so
    the tree holds a header-only journal per shard.  No-op on the
    memory backend. *)

val evict_all : t -> unit
(** Drop every cached overlay (state is already journaled; the next
    access per user is a cold materialization).  Bench/test hook; does
    not fire [store.evict]. *)

type stats = {
  hits : int;  (** Overlay cache hits. *)
  misses : int;  (** Cold materializations. *)
  evictions : int;  (** LRU evictions (capacity pressure only). *)
  journal_bytes : int;  (** Op-record bytes appended (monotonic). *)
  journal_ops : int;  (** Op records appended (monotonic). *)
  compactions : int;
  cached : int;  (** Overlays currently cached. *)
}

val stats : t -> stats
(** This store's metrics, read from {!metrics}. *)

val metrics : t -> Spamlab_obs.Metrics.t
(** This store's own registry: every field of {!stats} as a
    nondeterministic [store.*] metric ([hits] and [misses] as
    [store.overlay_hits] and [store.overlay_misses]), which the
    daemon's [STATS] renders. *)

(** {2 Offline verification} — backs [spamlab db verify] on a store
    directory.  Read-only; never opens the store. *)

type shard_report = {
  shard : int;
  seg_users : int;
  seg_rows : int;
  segment : [ `Ok | `Missing | `Corrupt of string ];
  journal :
    [ `Ok of int  (** committed op records *)
    | `Torn of int * int
      (** committed op records, salvageable uncommitted suffix records
          (valid lines past the last commit marker, before the torn
          tail) *)
    | `Stale  (** header's seg_crc does not match the segment: a
                  compaction crashed between its two renames; the next
                  open discards this journal (ops already live in the
                  segment) *)
    | `Missing
    | `Corrupt of string ];
}

type dir_report = {
  dir_shards : int;
  dir_users : int;
  dir_rows : int;
  dir_ops : int;  (** committed op records across all journals *)
  shard_reports : shard_report list;
  prior_ok : (Token_db.verify_report, string) result;
}

val verify_dir : string -> (dir_report, string) result
(** Verify every shard's segment (v3-style CRC footer + invariants:
    sorted users, sorted rows, non-negative counts, consistent user/row
    totals) and journal (header, per-line CRCs, commit markers, torn
    tail).  [Error] only when the directory or manifest is unusable;
    per-shard damage is reported in the shard list.  A shard is {e bad}
    — [spamlab db verify] exits nonzero — when its segment or journal
    is [`Corrupt]; [`Torn] tails and [`Stale] journals are recoverable
    by design and only reported. *)

val is_store_dir : string -> bool
(** True when [dir/manifest] names a spamlab store (cheap sniff used by
    [spamlab db verify] to dispatch file vs directory). *)

val apply_block : Token_db.t -> string -> unit
(** [apply_block db block] reads one user block of a segment — its
    [u] line, then as many rows as that line counts — into [db]: the
    block's message totals, then each row's counts over [db]'s, in
    order, every row's token interned.  What materializing a tenant
    does with the block's bytes; rows go through
    {!Token_db.scan_row}.
    @raise Sys_error on a truncated block, a bad [u] line or a bad row,
    after applying the rows before it. *)

(** The assembled spam filter: tokenizer + token database + scoring,
    with incremental train/untrain.  This is the system under attack. *)

type t

val create :
  ?options:Options.t -> ?tokenizer:Spamlab_tokenizer.Tokenizer.t -> unit -> t
(** Defaults: {!Options.default} and the SpamBayes tokenizer. *)

val options : t -> Options.t
val set_options : t -> Options.t -> t
(** Functional update (shares the token database) — used by the
    dynamic-threshold defense to retarget cutoffs without retraining. *)

val tokenizer : t -> Spamlab_tokenizer.Tokenizer.t
val db : t -> Token_db.t
(** The live database; mutating it mutates the filter. *)

val copy : t -> t
(** Logically-deep copy (independent database) — O(1) via the token
    DB's copy-on-write snapshot (see {!Token_db.copy}). *)

(** {2 Training and scoring}

    One entry point per operation, by interned id: training writes go
    to {!db} ({!Token_db.train_ids}, {!Token_db.train_many_ids},
    {!Token_db.untrain_ids}), and a filter scores through {!classify},
    {!classify_ids} and {!classify_mbox}.  Strings become ids once, where
    they enter: messages through the tokenizer and {!Ingest}, attack
    payloads and fixtures through {!Intern.intern_array}.  {!features},
    {!train} and {!train_tokens} are kept as one line each over that
    path for the perfbench harness. *)

val features : t -> Spamlab_email.Message.t -> string array
(** Distinct tokens of a message under this filter's tokenizer, sorted. *)

val train : t -> Label.gold -> Spamlab_email.Message.t -> unit
(** [train_tokens t label (features t msg)]. *)

val train_tokens : t -> Label.gold -> string array -> unit
(** {!Token_db.train_ids} on the interned distinct tokens. *)

val classify : t -> Spamlab_email.Message.t -> Classify.result
(** Score a parsed message through the filter's cache and name its
    clues ({!Ingest.explain_message_engine}).  Under options that keep
    unseen tokens out of δ(E), as {!Options.default} does, it interns
    nothing; under options where an unseen token can be a clue, it
    interns the message's tokens so they score and name their clues. *)

val engine : t -> Classify.engine
(** The filter's scoring engine: its options over its db through its
    private probability cache.  {!classify_ids} scores through it. *)

val classify_ids : t -> int array -> Classify.result
(** Score a message's distinct token ids — the hot path for
    [Dataset.example]s, which carry their id arrays.  Verdict only:
    [clues] is empty ({!Classify.score_engine}). *)

val classify_mbox : t -> string -> Classify.result option array
(** Classify every message of a raw mbox buffer, in order, through the
    zero-copy ingest path (header suppression per
    {!Ingest.ignored_header}); [None] for a malformed chunk.  Verdict
    only: [clues] is empty. *)

val save_file : t -> string -> unit
(** Persist the token database as a v3 file (options and tokenizer
    choice are code, not data), through [Spamlab_io.atomic_write]:
    an interrupted save leaves the previous file intact rather than a
    torn half-write.  A journal beside [path] no longer matches the new
    file's CRC, so {!load_file} ignores it and {!open_journal} resets
    it.  Fault sites: [db.save.write] (once, with half the bytes in the
    temp file) and [db.save.rename] (durable temp, not yet renamed). *)

val load_file :
  ?options:Options.t ->
  ?tokenizer:Spamlab_tokenizer.Tokenizer.t ->
  string ->
  (t, string) result
(** Strict load (see {!Token_db.of_string}) of the db at [path], then
    of the committed prefix of its journal [path ^ ".journal"] when the
    journal's header matches the db's CRC — the state the daemon last
    published.  A stale, empty or header-torn journal, or a torn tail
    past the last commit, is ignored; a db with no journal loads alone.
    Read-only: neither file is written.  A missing or unreadable file,
    a corrupt journal, or a journal op that does not apply is [Error],
    not an exception. *)

val verify_journal :
  string ->
  [ `Ok of int | `Torn of int * int | `Stale | `Missing | `Corrupt of string ]
(** Check the journal beside the db at a path, read-only, for
    [spamlab db verify]: its committed op count, or [`Torn] (committed
    and salvageable uncommitted records) when a suffix follows the last
    commit; [`Stale] when it does not match the db's CRC (a fold crashed
    before its reset; the next open discards it).  Recoverable states
    all; only [`Corrupt] is damage. *)

(** {2 The op journal}

    The daemon's shared filter journals its TRAIN/UNTRAIN ops beside its
    v3 db ({!Journal}'s records, with an empty user field), so a
    publish appends the ops since the last one instead of rewriting the
    whole db.  The db is rewritten (a {e fold}) only when the journal
    outgrows {!Journal.compact_ratio} times the db's bytes, and at a
    clean close. *)

type journal
(** The journal of a db opened for writing by its one writer. *)

val open_journal :
  ?options:Options.t ->
  ?tokenizer:Spamlab_tokenizer.Tokenizer.t ->
  string ->
  (t * journal, string) result
(** {!load_file} for the writer, in one read of the journal: its
    committed records are applied as {!Journal.open_} scans them, and
    then a torn tail is truncated to its last commit and a stale
    journal is reset.  A committed record that does not apply is an
    [Error] naming the journal, with the file untouched.  A missing db
    is the empty filter (at CRC 0 and size 0); a missing journal stays
    missing until a commit writes it. *)

val journal_op : journal -> Journal.kind -> Label.gold -> int array -> unit
(** Buffer the record of one op already applied to the filter (in
    memory until {!commit_journal}). *)

val commit_journal : journal -> published:Token_db.t -> unit
(** The publish step.  With no op buffered since the last commit,
    nothing is written.  Otherwise, when the journal with the buffered
    records would outgrow the ratio (a missing or pre-v3 db counts as 0
    bytes, so its first commit writes it), the db is first folded from
    [published] — the state the db and its committed journal hold, so
    a crash inside the fold loses nothing they did not — and then the
    records and a commit marker are appended and fsynced.  Fault site
    [db.journal.fold]: between the fold's db rename and its journal
    reset, where the journal on disk is stale. *)

val close_journal : journal -> published:Token_db.t -> unit
(** The clean-shutdown form: when the journal holds committed ops (or a
    commit passed over a missing or pre-v3 db), fold [published] into a
    canonical v3 db over a header-only journal.  Buffered, uncommitted
    records are dropped. *)


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

val features : t -> Spamlab_email.Message.t -> string array
(** Distinct tokens of a message under this filter's tokenizer. *)

val train : t -> Label.gold -> Spamlab_email.Message.t -> unit
val train_tokens : t -> Label.gold -> string array -> unit
(** Train on pre-extracted distinct tokens (the fast path for large
    experiments where messages are tokenized once and reused). *)

val train_tokens_many : t -> Label.gold -> string array -> int -> unit
(** [train_tokens_many t label tokens k]: train [k] identical messages in
    one O(|tokens|) pass (see {!Token_db.train_many}). *)

val untrain : t -> Label.gold -> Spamlab_email.Message.t -> unit
val untrain_tokens : t -> Label.gold -> string array -> unit

val train_ids : t -> Label.gold -> int array -> unit
(** Train on pre-interned distinct-token ids (see
    {!Intern.intern_array}) — the hot path for [Dataset.example]s,
    which carry their id arrays. *)

val untrain_ids : t -> Label.gold -> int array -> unit

val train_corpus :
  t -> (Label.gold * Spamlab_email.Message.t) list -> unit

val classify : t -> Spamlab_email.Message.t -> Classify.result
val classify_tokens : t -> string array -> Classify.result
val classify_ids : t -> int array -> Classify.result

val classify_mbox : t -> string -> Classify.result option array
(** Classify every message of a raw mbox buffer, in order, through the
    zero-copy ingest path (header suppression per
    {!Ingest.ignored_header}); [None] for a malformed chunk. *)

val token_score : t -> string -> float
(** f(w) under this filter's current state. *)

val save_file : t -> string -> unit
(** Persist the token database (options and tokenizer choice are code,
    not data).  Crash-safe: the bytes are written to [path ^ ".tmp"],
    fsynced, and atomically renamed over [path], so an interrupted save
    leaves the previous file intact rather than a torn half-write.
    Fault sites: [db.save.write] (mid-write to the temp file) and
    [db.save.rename] (durable temp, not yet published). *)

val load_file :
  ?options:Options.t ->
  ?tokenizer:Spamlab_tokenizer.Tokenizer.t ->
  string ->
  (t, string) result
(** Strict load (see {!Token_db.of_string}).  A missing or unreadable
    file is [Error], not an exception. *)

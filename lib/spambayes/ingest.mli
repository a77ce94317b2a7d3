(** Zero-copy ingest: raw message bytes to interned id sets.

    The hot path of every experiment is tokenize → look up token
    probabilities → score.  This module is the batched form of the
    first step: tokenizers push byte {e slices}
    ({!Spamlab_tokenizer.Tokenizer.iter_spans}) into the domain's
    {!Intern.keys} buffer, one {!Intern.resolve} or {!Intern.lookup}
    looks the whole message up, and {!Intern.sort_uniq} leaves the
    distinct ids at the front of the resolved array.

    {2 Training interns, scoring looks up}

    The training entry points ({!with_unique_ids},
    {!with_unique_ids_raw}, {!unique_ids_raw}) resolve tokens with
    {!Intern.resolve}, interning every token they have never seen.
    Scoring ({!explain_message_engine}, {!classify_raw_engine},
    {!classify_mbox_engine}) looks them up with {!Intern.lookup} and
    drops the tokens no table holds before the dedup.  Such a token
    has no counts, so it would score exactly [unknown_word_prob];
    where the options keep that out of δ(E)
    ({!Options.unknown_word_is_clue} false, as under
    {!Options.default}), dropping it changes no score, verdict or clue,
    and read traffic never grows the intern table.  Under options where
    an unseen token can be a clue, scoring resolves like training, so
    the token is interned, scores and names its clue.

    {2 What allocates}

    Once the per-domain buffers have grown to the message size, the
    body words of a raw message allocate nothing when scored, whether
    or not any table holds them, and nothing when trained if the frozen
    intern snapshot holds them: the minor words a call allocates do not
    depend on how many such words the body has.  That holds for every
    chunk, base64, quoted-printable, HTML and multipart mail included:
    decoding and tag stripping go to per-domain scratch.  Scoring never
    allocates or interns a token string; training allocates the string
    of each brand-new token.  Still allocated per message: the kept
    header fields, every computed meta token (prefixed header words,
    [url:], [email], [8bit%], address and Received tokens), a few
    closures per call, the Content-Type and transfer-encoding values of
    each MIME part, and one closure for the intern lock when a batch
    goes to the live table (any snapshot miss when training; when
    scoring, only a snapshot miss after the table has grown since the
    snapshot).

    Ids come out sorted by {e id value}, a set representation, which
    [Dataset.example] keeps as it is (nothing downstream orders tokens
    by their ids, and id order is schedule-dependent — see
    {!Intern}).

    {2 Raw mail}

    The [_raw] entry points consume full raw mbox bytes without
    building [Message.t] values: chunks are the offsets
    [Mbox.chunks] cuts, read up to their [Mbox.chunk_end] as
    [Mbox.parse] reads them, headers are
    read by offsets ([Rfc2822.scan_headers]) with SpamAssassin-style
    [$IGNORED_HDRS] suppression ({!ignored_header}), and the body goes
    to the tokenizer in place.  Only a body with a line to fix (a CR
    line end, or [">From"] quoting) is copied first, to per-domain
    scratch.  A malformed message (header line without a colon) is
    dropped, as in [Mbox.parse_lenient].

    Raw-path tokens are exactly what
    {!Spamlab_tokenizer.Tokenizer.iter_message} produces on the
    leniently parsed message after the ignored headers are removed —
    the differential tests hold the two equal, and both equal to the
    string oracle's.  Every verb of the daemon and the offline
    [spamlab train] ingest mail this way, so what is learned is what is
    looked up.

    {2 Counters}

    [ingest.msgs] and [ingest.bytes] count ingested messages and raw
    bytes; both are allocation-free and untouched when observability
    is disabled. *)

val with_unique_ids :
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_email.Message.t ->
  (int array -> int -> int -> 'a) ->
  'a
(** [with_unique_ids t msg f] tokenizes [msg] through the span path
    and calls [f ids distinct raw]: [ids.(0 .. distinct-1)] are the
    message's distinct token ids in ascending id order, [raw] is the
    total token-stream length.  [ids] is the per-domain scratch
    buffer — valid only during [f], do not retain it. *)

val explain_message_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_email.Message.t ->
  Classify.result
(** Classify one parsed message through an explicit engine and name
    its clues: its token stream as {!with_unique_ids} reads it, looked
    up as {!classify_raw_engine} looks a chunk up (resolved instead
    when the engine's options let an unseen token be a clue), scored
    by {!Classify.explain}.  Under {!Options.default} nothing is
    interned.  Backs [Filter.classify]. *)

(** {1 Raw mail} *)

val ignored_header : string -> bool
(** True for headers in the suppression set (case-insensitive):
    delivery bookkeeping, list plumbing and other filters' verdicts,
    after SpamAssassin's [$IGNORED_HDRS].  Headers the tokenizers mine
    (Subject, From, To, Reply-To, Received, Content-Type,
    Content-Transfer-Encoding) are never suppressed. *)

val raw_message_chunks : ?off:int -> ?len:int -> string -> (int * int) array
(** [Mbox.chunks], under its old name only because perfbench links
    it; everything else calls [Mbox.chunks]. *)

val iter_raw_spans :
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  bool
(** The token stream of one raw message chunk, as
    {!Spamlab_tokenizer.Tokenizer.iter_spans} delivers it for the
    chunk's header fields (ignored ones suppressed) and body; [false],
    with nothing delivered, if the chunk is malformed.  Every [_raw]
    entry point below reads chunks through it. *)

val with_unique_ids_raw :
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  (int array -> int -> int -> 'a) ->
  'a option
(** Like {!with_unique_ids} on one raw message chunk (headers
    suppressed per {!ignored_header}); [None] if the chunk is
    malformed. *)

val unique_ids_raw :
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  (int array * int) option

val classify_raw_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  Classify.result option
(** Classify one raw message chunk through an explicit engine:
    span-tokenize → {!Intern.lookup} → drop the tokens no table holds
    → dedup-in-scratch → {!Classify.score_engine_sub}, reusing the
    per-domain id buffer, so nothing is interned.  When the engine's
    options let an unseen token be a clue
    ({!Options.unknown_word_is_clue}), tokens are resolved as in
    training instead.  [None] if the chunk is malformed.  The daemon's
    CLASSIFY fan-out path (shared snapshot cache across pool
    workers). *)

val classify_mbox_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  Classify.result option array
(** Classify every message of a raw mbox buffer in order, through an
    explicit engine ([None] for malformed chunks).  Single-domain; for
    pool fan-out compose [Mbox.chunks] with {!classify_raw_engine}. *)

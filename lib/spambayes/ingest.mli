(** Zero-copy ingest: raw message bytes to interned id sets.

    The hot path of every experiment is tokenize → look up token
    probabilities → score.  This module is the batched form of the
    first step: tokenizers push byte {e slices}
    ({!Spamlab_tokenizer.Tokenizer.S.iter_spans}) into the domain's
    {!Intern.keys} buffer, one {!Intern.resolve} looks the whole
    message up, and {!Intern.sort_uniq} leaves the distinct ids at the
    front of the resolved array.

    {2 What allocates}

    Once the per-domain buffers have grown to the message size, the
    body words of a simple raw message (see below) whose tokens the
    frozen intern snapshot holds allocate nothing: the minor words a
    call allocates do not depend on how many such words the body has.
    Still allocated per message: the header fields and a header-only
    [Message.t], every meta token (prefixed header words, [skip:],
    [url:], [8bit%], address and Received tokens), a few closures
    per call, one closure for the intern lock when any token misses
    the snapshot, the string of each brand-new token, and the whole of
    a message that needs MIME decoding or body fixups.

    Ids come out sorted by {e id value}, a set representation; this is
    deliberately not the string-sorted order of [Dataset.example]
    (nothing downstream of this path orders tokens, and id order is
    schedule-dependent — see {!Intern}).

    {2 Raw mail}

    The [_raw] entry points consume full raw mbox bytes without
    building [Message.t] values: chunks are delimited by offsets
    ({!iter_raw_messages}, mirroring [Mbox.chunks_of]), headers are
    parsed by offsets with SpamAssassin-style [$IGNORED_HDRS]
    suppression ({!ignored_header}), and the body of a simple message
    (no MIME headers, no [">From"] quoting, no CRLF) tokenizes directly
    from the buffer.  Messages that need MIME decoding or body fixups
    fall back to a materialized message — same tokens, one copy.  A
    malformed message (header line without a colon) is dropped, as in
    [Mbox.parse_lenient].

    Raw-path tokens are exactly what the string pipeline produces
    after the ignored headers are removed — the differential tests
    hold the two equal.

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

val unique_ids :
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_email.Message.t ->
  int array * int
(** Materialized form of {!with_unique_ids}:
    [(distinct ids, raw count)]. *)

val classify_many :
  Options.t ->
  Token_db.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_email.Message.t array ->
  Classify.result array
(** Batched classification: every message goes span-tokenize →
    dedup-in-scratch → {!Classify.score_engine_sub}, reusing one
    per-domain id buffer across the whole batch.  Results are
    positionally aligned with the input.  This form scores through the
    uncached reference engine; cached callers use
    {!classify_many_engine}. *)

val classify_many_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  Spamlab_email.Message.t array ->
  Classify.result array
(** {!classify_many} scoring through an explicit {!Classify.engine}
    (per-filter probability cache, daemon snapshot cache, tenant
    overlay) — output is bit-identical to the uncached form. *)

(** {1 Raw mail} *)

val ignored_header : string -> bool
(** True for headers in the suppression set (case-insensitive):
    delivery bookkeeping, list plumbing and other filters' verdicts,
    after SpamAssassin's [$IGNORED_HDRS].  Headers the tokenizers mine
    (Subject, From, To, Reply-To, Received, Content-Type,
    Content-Transfer-Encoding) are never suppressed. *)

val iter_raw_messages : string -> (off:int -> len:int -> unit) -> unit
(** Walk the message chunks of a raw mbox buffer by offsets —
    the regions [Mbox.chunks_of] would produce, separator lines
    excluded.  An all-whitespace buffer yields nothing. *)

val raw_message_chunks : string -> (int * int) array
(** Materialized [(off, len)] chunk list of a raw mbox buffer — the
    fan-out unit for pool workers ([Pool.map_array] over chunks, each
    worker calling {!classify_raw}). *)

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

val classify_raw :
  Options.t ->
  Token_db.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  Classify.result option
(** Classify one raw message chunk; [None] if malformed. *)

val classify_mbox :
  Options.t ->
  Token_db.t ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  Classify.result option array
(** Classify every message of a raw mbox buffer in order ([None] for
    malformed chunks).  Single-domain; for pool fan-out compose
    {!raw_message_chunks} with {!classify_raw}. *)

val classify_raw_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  off:int ->
  len:int ->
  Classify.result option
(** {!classify_raw} through an explicit engine — the daemon's CLASSIFY
    fan-out path (shared snapshot cache across pool workers). *)

val classify_mbox_engine :
  Classify.engine ->
  Spamlab_tokenizer.Tokenizer.t ->
  string ->
  Classify.result option array
(** {!classify_mbox} through an explicit engine. *)

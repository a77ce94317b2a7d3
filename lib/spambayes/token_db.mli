(** The token count database behind Eq. (1): per-token spam/ham message
    presence counts N_S(w), N_H(w) and the global message counts N_S,
    N_H.

    Counts are {e message presence} counts — a token appearing five
    times in one message contributes 1 — matching SpamBayes' set
    semantics.  Callers pass deduplicated token arrays (see
    {!Spamlab_tokenizer.Tokenizer.unique_tokens}); this module trusts
    them.

    {2 Representation}

    Counts live in flat open-addressing tables keyed by interned token
    id (see {!Intern}); every count, training and fold entry point
    takes ids.  A slot is three ints — the id and its absolute spam
    and ham counts — so an entry costs 4 to 8 words and a db is sized
    by the tokens it holds, never by the range of their ids.  The tables
    are {!Ints}, outside the OCaml heap: a db itself is a few dozen heap
    words whatever it holds.  Entries are never removed.  A db reads two tables: its own, which takes every
    write, then an immutable base it may share with other dbs (see
    {!copy}); a read takes both counts from the one slot it finds
    ({!slot}).

    One representational consequence: an entry whose counts return to
    0/0 (or is loaded as 0/0) is indistinguishable from an absent one.
    {!distinct_tokens}, {!fold} and {!to_string} all treat such
    entries as absent, exactly as the previous implementation removed
    emptied tokens from its table. *)

type t

val create : unit -> t

val copy : t -> t
(** Logically-deep copy: mutations of the copy never affect the
    original, and vice versa.  A db without a base (freshly trained or
    loaded) lends the copy its own table as the copy's base, in O(1);
    the source's next write first promotes that table to its own base
    (its {!overlay_size} then drops to 0).  A db with a base shares it
    and blits its own table, at most [8 × overlay_size] words.  Any
    number of domains may copy one db at once, and read it meanwhile;
    no copy may race a write to its source. *)

val nspam : t -> int
(** Number of spam messages trained. *)

val nham : t -> int

val spam_count_id : t -> int -> int
(** N_S(w) by interned id: one {!slot} probe, no string.  Ids never
    present in this db read 0. *)

val ham_count_id : t -> int -> int

val slot : t -> int -> int
(** Where [id]'s counts live, found once for {!slot_spam} and
    {!slot_ham} to read both (the scoring hot path): an opaque
    position, valid until [t] is next written (copying [t] keeps it).
    Allocates nothing. *)

val slot_spam : t -> int -> int
val slot_ham : t -> int -> int

val distinct_tokens : t -> int
(** Number of tokens with a non-zero combined count. *)

val generation : t -> int
(** Mutation counter: starts at 1 and is bumped once per mutating call
    ({!train_ids}, {!train_many_ids}, {!untrain_ids}, {!set_counts_id},
    [set_message_counts]).  {!Prob_cache} stamps each cached
    probability with the generation it was computed under, so cache
    validity is one int compare.  Invalidation is deliberately
    wholesale — every mutation changes (or may accompany a change to)
    the global message totals N_S/N_H, which enter the smoothing
    formula for {e every} token, so a per-token dirty set cannot be
    sound.  {!copy} inherits the counter value; caches key on the db
    {e instance}, so the shared value is never compared across
    instances. *)

val train_ids : t -> Label.gold -> int array -> unit
(** [train_ids t label ids] records one message of class [label] whose
    distinct tokens are [ids] (as {!Ingest.with_unique_ids} gives
    them). *)

val train_many_ids : t -> Label.gold -> int array -> int -> unit
(** [train_many_ids t label ids k] records [k] identical messages in
    one pass — equivalent to calling {!train_ids} [k] times but
    O(|ids|).  Poisoning experiments train hundreds of identical
    dictionary-attack emails; this keeps them tractable at paper scale.
    @raise Invalid_argument if [k < 0]. *)

val untrain_ids : t -> Label.gold -> int array -> unit
(** Exact inverse of {!train_ids} for the same arguments.  Validation
    is occurrence-aware — an id appearing m times in the array needs a
    recorded count of at least m — and happens entirely before any
    mutation, so a failed untrain leaves the database intact.
    @raise Invalid_argument if it would drive any count negative
    (indicates the message was never trained); the message names the
    byte-least such token, whatever the order of the array. *)

val set_counts_id : t -> int -> spam:int -> ham:int -> unit
(** [set_counts_id t id ~spam ~ham] overwrites both counts of [id] in
    [t]'s own table (zeroing an id [t] holds nowhere claims no slot).
    Loading fills a db this way, and the tenant store materializes a
    per-user overlay over the shared prior.  Does {e not} touch the
    message totals — pair with {!set_message_counts}.
    @raise Invalid_argument on a negative count. *)

val set_message_counts : t -> nspam:int -> nham:int -> unit
(** Overwrite the global message counts N_S, N_H.
    @raise Invalid_argument on a negative count. *)

val overlay_size : t -> int
(** Slots in [t]'s own table: the ids written to [t] since it was
    made, or since its first write after a {!copy} took the table as
    its base — for a db never copied, every id it holds.  The tenant
    store sizes a user's rendering off this. *)

val overlay_mem : t -> int -> bool
(** [overlay_mem t id]: [id] has a slot in [t]'s own table (one probe,
    none while it is empty).  On a copy of the shared prior, the tenant
    scoring fast path uses this as the per-overlay dirty set: an id
    {e not} in the overlay reads the same counts as the prior, so (when
    the message totals also agree) its cached prior probability is
    valid for the tenant. *)

val iter_overlay : (int -> spam:int -> ham:int -> unit) -> t -> unit
(** Visit {e only} the slots of [t]'s own table, with their current
    absolute counts (possibly the base's, possibly 0/0), in no
    particular order: how the sharded store extracts a tenant's
    delta-vs-prior in O(|touched|). *)

val fold : ('a -> int -> spam:int -> ham:int -> 'a) -> 'a -> t -> 'a
(** Fold over every id with a non-zero combined count, with its
    counts, in no particular order. *)

val to_string : t -> string
(** The saved byte representation, format version 3: a header line
    [spamlab-token-db 3 nspam nham], one [token<TAB>spam<TAB>ham] line
    per token sorted by token, then a footer line
    [#spamlab-db-footer crc32=XXXXXXXX entries=N] where the CRC-32
    (IEEE) covers every preceding byte and [N] is the entry-line count
    — so truncation and bit flips are detectable on load.  Backslash,
    tab, newline, and carriage return inside tokens are escaped as
    [\\], [\t], [\n], [\r] — tokens come from attacker-controlled email
    bodies, so they can contain the format's own delimiters.  Rows are
    written by {!render_rows}, in [String.compare] order of the token
    strings, so the bytes are independent of interning order; ids
    covered by the last {!Intern.freeze} are ordered by their int
    {!Intern.rank}, and only ids interned since cost byte compares. *)

val of_string : string -> (t, string) result
(** Strict parse of versions 1 (legacy, verbatim tokens), 2 (escaped),
    and 3 (escaped + checksum footer).  Returns [Error] — never a
    silently-corrupt database, and never an exception (resource
    exhaustion aside) — on a malformed header or line, a bad escape
    sequence, a negative count, a per-token count exceeding the
    header's message totals, a duplicate token line, and (v3) a missing
    footer, a footer line other than the one {!to_string} would write
    for its values, an entry-count mismatch, or a checksum mismatch.  A line
    with both counts zero is accepted but not retained (see the
    representation note above), nor interned.

    One pass over the string with the {!scan_row} scanner: rows are
    interned in file order through {!Intern.bulk_sub}, so a canonical
    file's new ids arrive in byte order and the next {!Intern.freeze}
    merges them without a sort.  The CRC is fed where the bytes lie.
    Memory is the db's table, sized once from the line count, and one
    string per first-seen token; the count is announced to the intern
    table ({!Intern.reserve}), which then grows at most once. *)

val footer_crc : string -> int option
(** The CRC-32 a v3 file's footer records, read from the last line of
    its bytes without re-checking it; [None] for a pre-v3 file or bytes
    that do not end in a footer. *)

type verify_report = {
  version : int;
  nspam : int;
  nham : int;
  entries : int;
  checksum : [ `Ok | `Absent ];  (** [`Absent] for v1/v2 (no footer). *)
}

val verify_string : string -> (verify_report, string) result
(** Strict parse (exactly {!of_string}'s validation), reporting what
    was checked instead of the database.  Backs [spamlab db verify]. *)

type salvage = {
  db : t;  (** Everything recoverable: all well-formed entry lines. *)
  version : int;
  kept : int;  (** Entry lines recovered into [db]. *)
  dropped : int;  (** Malformed or duplicate lines discarded. *)
  checksum_ok : bool option;
      (** [None] when no footer was found (v1/v2 or truncated v3). *)
}

val salvage_string : string -> (salvage, string) result
(** Best-effort partial recovery from a corrupt save: keeps every
    parseable entry line, drops the rest, and reports the damage.
    [Error] only when the header itself is unusable.  Never raises.
    [checksum_ok] compares the footer with the CRC of exactly the bytes
    the strict check covers — every line before the first footer,
    blank lines included. *)

(** {2 Format plumbing}

    The sharded store's segment and journal files reuse this module's
    row renderer, escaping and checksum conventions so every on-disk
    format in the tree shares one dialect (and one set of tests). *)

val render_rows :
  ?head:(int -> unit) ->
  Buffer.t ->
  capacity:int ->
  ((int -> spam:int -> ham:int -> unit) -> unit) ->
  int
(** [render_rows b ~capacity iter] calls [iter emit] once; [iter] hands
    [emit] every row as an id with its two counts (distinct ids, any
    order).  The rows are then appended to [b] as
    [token<TAB>spam<TAB>ham] lines, token escaped by {!add_escaped}, in
    [String.compare] order of the token strings ({!Intern.byte_order}).
    Returns the row count.  [head] (default: nothing) is called with
    the row count after collection and before the first row is
    written, so a caller can prefix a line that counts them.
    [capacity] sizes the scratch arrays: pass the expected row count
    (more rows still work, at the cost of a regrow). *)

val add_escaped : Buffer.t -> string -> unit
(** Append a token with backslash, tab, newline, carriage return
    escaped as [\\], [\t], [\n], [\r]. *)

val unescape_token : string -> (string, string) result
(** Inverse of {!add_escaped}; [Error] on a dangling or unknown
    escape. *)

(** {2 Row scanner}

    The one reader of the row grammar [token<TAB>spam<TAB>ham]: the db
    loader ({!of_string}, {!verify_string}, {!salvage_string}) and the
    store's tenant blocks and segment verifier all parse rows through
    it, where they lie in the file string.  A row is one pass: the two
    tabs and the newline found by index, counts of up to 18 plain
    digits read in place (any other form through [int_of_string_opt],
    so every count ever accepted still reads the same), and the token
    copied only when it holds a backslash. *)

type rows = private {
  data : string;  (** The file string the rows lie in. *)
  mutable line : int;  (** First byte of the last scanned line. *)
  mutable eol : int;
      (** Its newline, or [String.length data] when it is the
          unterminated last line. *)
  mutable tok_off : int;  (** The raw token field, as a slice of [data]. *)
  mutable tok_len : int;
  mutable escaped : bool;
      (** The token held an escape: read it from [tok], not the slice. *)
  mutable tok : string;
  mutable spam : int;
  mutable ham : int;
}
(** A scanner over one string: the fields of the last row it read. *)

type row =
  | Row  (** Three fields, a valid token, two integer counts. *)
  | Bad_fields  (** Not exactly two tabs on the line. *)
  | Bad_escape of string  (** {!unescape_token}'s error. *)
  | Bad_counts  (** A count field that is no integer. *)

val rows : string -> rows

val scan_row : rows -> verbatim:bool -> int -> row
(** [scan_row r ~verbatim pos] reads the line starting at [pos] of
    [r.data] as a row, checked in that order: fields, escape, counts.
    Counts may be negative; bounds are the caller's.  [verbatim] (the
    v1 db format) takes the token as written.  Whatever it returns, [r.line]
    and [r.eol] delimit the line, so the caller can go on at
    [r.eol + 1].  Allocates only for an escaped token, a count in a
    non-plain form, or an error. *)

val row_token : rows -> string
(** The last row's token string (a copy of the slice unless escaped). *)

val row_line : rows -> string
(** The last scanned line, without its newline: for error messages. *)

val row_id : (string -> int -> int -> int) -> rows -> int
(** [row_id intern r] interns the last row's token with [intern]
    ({!Intern.intern_sub} or {!Intern.bulk_sub}), from the slice where
    it lies unless it was escaped. *)

val crc_init : int
(** Initial CRC-32 (IEEE) register value. *)

val crc_feed : int -> string -> int
(** Feed bytes through the CRC register. *)

val crc_feed_sub : int -> string -> int -> int -> int
(** [crc_feed_sub reg s off len] is [crc_feed reg (String.sub s off len)]
    without the copy.
    @raise Invalid_argument if [off]/[len] do not denote a slice of [s]. *)

val crc_feed_buffer : ?pos:int -> int -> Buffer.t -> int
(** {!crc_feed} over a buffer's contents from [pos] (default 0) to its
    end, without copying them out whole. *)

val crc_finish : int -> int
(** Finalize the register into the checksum value. *)

val find_slot : Ints.t -> stride:int -> mask:int -> int -> int
(** The probe behind every id table (count tables, {!Prob_cache}'s
    private tables): the slot holding [id >= 0] in an open-addressing table
    of [mask + 1] slots (a power of two) keyed by [tbl.{stride * slot}],
    else the first empty slot (key [-1]) on its probe sequence.  The
    sequence starts at [id land mask] — a db whose ids are dense sits in
    its table like an array — and continues by double hashing.  The
    table must keep an empty slot.  Allocates nothing. *)

(** Append-only op journals: the one implementation behind the tenant
    store's shard journals and the daemon's shared db journal.

    A journal holds one line per TRAIN/UNTRAIN, each carrying its own
    CRC so a torn or bit-flipped tail is detected record by record:

    {v
    T \t user \t s|h \t k \t tok ... \t crc=XXXXXXXX
    U \t user \t s|h \t tok ...      \t crc=XXXXXXXX
    C \t crc=XXXXXXXX
    v}

    The CRC (the token-db's CRC-32) covers every byte of the line up to
    and including the tab before it.  [C] commit markers bound the
    durable prefix: an op past the last marker was never acknowledged,
    and every open drops it.  The header line stamps the CRC of the
    file the ops apply over (a store segment, a v3 db), so a crash
    between rewriting that file and resetting its journal leaves a
    {e stale} journal that an open discards instead of applying twice.
    The shared db's records carry an empty user field. *)

type kind = [ `Train | `Untrain ]

type 'tok op = { kind : kind; label : Label.gold; k : int; tokens : 'tok array }
(** One record.  The write path carries interned ids ([int op]); the
    parser yields strings ([string op]). *)

val compact_ratio : float
(** 4.0: a journal is folded into the file it applies over once it
    outgrows this many times that file's bytes (counted as at least
    one).  The store's default and the shared db's constant rule. *)

val of_ids : kind -> Label.gold -> int array -> int op
(** A one-message op over distinct ids, listed in byte order of their
    strings ({!Intern.byte_order}), so the record's bytes depend neither
    on id order nor on interning order. *)

val intern : string op -> int op

val apply : Token_db.t -> int op -> unit
(** @raise Invalid_argument on an untrain of a never-trained message. *)

val add_record : Buffer.t -> user:string -> int op -> unit
(** Append one record line, tokens in [op.tokens] order. *)

val parse_line : string -> [ `Commit | `Op of string * string op | `Bad of string ]
(** One line without its newline: a commit marker, an op with its
    user, or a bad line (CRC or syntax).  The [crc=] field must be
    exactly the [%08x] text of the line's CRC; any other spelling of
    it, an upper-case digit included, is a ["crc mismatch"].  The
    header's CRC field is read the same way. *)

val parse_sub :
  string -> int -> int -> [ `Commit | `Op of string * string op | `Bad of string ]
(** [parse_sub data off len] is [parse_line (String.sub data off len)]
    without the copy: the CRC is taken and the fields split where the
    record lies.
    @raise Invalid_argument if [off]/[len] do not denote a slice. *)

(** {2 Reading} *)

type scan = {
  header_len : int;
  last_commit : int;  (** Offset just past the last commit marker. *)
  committed : int;  (** Op records before it. *)
  uncommitted : int;  (** Valid op records past it. *)
  torn : bool;  (** Bytes past the last valid line. *)
}

val scan :
  ident:string ->
  base_crc:int option ->
  ?on_op:(string -> off:int -> len:int -> unit) ->
  string ->
  [ `Headless | `Stale | `Corrupt of string | `Scanned of scan ]
(** Walk a journal's bytes.  [ident] is the header up to its CRC field
    (["spamlab-store-journal 1 3 16 seg_crc"]); a header naming
    another file is [`Corrupt].  The journal is [`Stale] when its
    stamped CRC differs from [base_crc] ([None]: unknown, never
    stale).  [on_op user ~off ~len] sees every {e committed} op, in
    order, as the byte extent of its line (without the newline).
    [`Headless]: empty, or torn inside the header. *)

val verify :
  ident:string ->
  base_crc:int option ->
  string ->
  [> `Ok of int | `Torn of int * int | `Stale | `Corrupt of string ]
(** {!scan} for [spamlab db verify]: committed op count, or committed
    plus uncommitted counts when a suffix follows the last commit. *)

(** {2 Writing} *)

type t
(** An open journal: its file plus a buffer of records not yet
    written.  Records reach the file on {!flush} or {!commit}; only
    {!commit} fsyncs. *)

val open_ :
  create:bool ->
  ident:string ->
  base_crc:int ->
  string ->
  (t * (string * int * int) list, string) result
(** Open the journal at a path for writing over a file whose CRC is
    [base_crc], returning its committed ops as [(user, off, len)]
    extents.  A torn tail is truncated to the last commit; a stale,
    empty or header-torn journal is reset to a header-only one.  A
    missing journal is created when [create], and otherwise stays
    missing until the first write.  [Error] on a header naming another
    file. *)

val append : t -> user:string -> int op -> int * int
(** Buffer one record; returns its file offset (once flushed) and its
    length in bytes, newline included. *)

val unappend : t -> off:int -> unit
(** Drop the buffered records from offset [off] on (an op that failed
    to apply). *)

val buffered : t -> int
(** Bytes of records not yet written. *)

val payload : t -> int
(** Record bytes past the header, written or buffered. *)

val has_committed : t -> bool
(** Whether the file holds a committed op. *)

val flush : t -> unit
(** Write the buffered records (creating the file first if it is
    missing, or resetting it if it was {!rebase}d), through a fixed
    per-domain chunk: the buffer is never copied out whole.  The fault
    site ["journal.write"] fires before each write syscall.  On failure
    the buffer is kept, and a retry writes the same bytes. *)

val commit : t -> unit
(** If anything is uncommitted: append a commit marker, write, fsync
    (the fault site ["journal.fsync"] fires before the fsync).  The
    buffer is cleared only once the fsync succeeds.  On failure the
    marker is dropped and the file is cut back to its length before the
    call, so the records stay buffered exactly once, and a retried
    commit leaves the bytes an uninterrupted one would. *)

val read : t -> off:int -> len:int -> string
(** The flushed bytes at [off]. *)

val reset : t -> base_crc:int -> unit
(** Atomically replace the file with a header-only journal stamped
    [base_crc].  Buffered records are kept. *)

val rebase : t -> base_crc:int -> unit
(** The file the journal applies over was rewritten with CRC
    [base_crc], so the journal on disk is stale: note it, and reset the
    file before anything else is written to it ({!reset} does it now). *)

val close : t -> unit
(** Release the descriptor; buffered records are dropped. *)

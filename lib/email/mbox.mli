(** mboxrd-style mailbox files: messages separated by ["From "] lines,
    with [>From]-quoting of body lines that would otherwise look like
    separators.  Used to persist generated corpora and to feed the CLI. *)

val print : Message.t list -> string
(** Serialize a mailbox.  Each message gets a synthetic
    ["From spamlab@localhost"] separator line; body lines matching
    [>*From ] are quoted with one more ['>']. *)

val chunks : ?off:int -> ?len:int -> string -> (int * int) array
(** The [(off, len)] message chunks of a raw mailbox, in order: the
    bytes between ["From "] separator lines, separators excluded, each
    with the newline {!print} puts after its body.  [?off] and [?len]
    (default: the whole buffer) make the mailbox a slice of the buffer;
    chunk offsets are offsets into the buffer, and no byte outside the
    slice is read.  An all-whitespace mailbox has no chunks.  The one
    mailbox cutter: {!parse}, {!parse_lenient} and raw-mail ingest all
    read mail through it.
    @raise Invalid_argument if the slice is not inside the buffer. *)

val chunk_end : string -> int -> int -> int
(** [chunk_end buf off len]: where the message of the chunk [(off, len)]
    ends, one trailing newline (the one {!print} adds) dropped. *)

val parse : string -> (Message.t list, string) result
(** Parse a mailbox, reversing the quoting: each chunk up to its
    {!chunk_end} read by [Rfc2822.parse ~unquote:true], so a message
    reads the same at every position in the mailbox.  An
    all-whitespace string is the empty mailbox; other text with no
    chunk is an error, and so is the first chunk that does not
    parse. *)

val write_file : string -> Message.t list -> unit
(** @raise Sys_error on I/O failure. *)

val read_file : string -> (Message.t list, string) result
(** A missing or unreadable file is [Error], not [Sys_error]. *)

val parse_lenient : string -> Message.t list * int
(** Like {!parse}, but a chunk that fails RFC 2822 parsing is dropped
    instead of failing the whole mailbox.  Returns the surviving
    messages and the number of dropped (quarantined) chunks. *)

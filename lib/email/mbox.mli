(** mboxrd-style mailbox files: messages separated by ["From "] lines,
    with [>From]-quoting of body lines that would otherwise look like
    separators.  Used to persist generated corpora and to feed the CLI. *)

val print : Message.t list -> string
(** Serialize a mailbox.  Each message gets a synthetic
    ["From spamlab@localhost"] separator line; body lines matching
    [>*From ] are quoted with one more ['>']. *)

val parse : string -> (Message.t list, string) result
(** Parse a mailbox, reversing the quoting.  An empty string is the
    empty mailbox. *)

val write_file : string -> Message.t list -> unit
(** @raise Sys_error on I/O failure. *)

val read_file : string -> (Message.t list, string) result
(** A missing or unreadable file is [Error], not [Sys_error]. *)

val parse_lenient : string -> Message.t list * int
(** Like {!parse}, but a chunk that fails RFC 2822 parsing is dropped
    instead of failing the whole mailbox.  Returns the surviving
    messages and the number of dropped (quarantined) chunks. *)

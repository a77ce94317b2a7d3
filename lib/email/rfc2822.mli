(** Serialization of {!Message.t} to and from RFC 2822-style wire text:
    header fields, a blank line, then the body.  Handles folded
    (continuation) header lines and both LF and CRLF input. *)

val print : Message.t -> string
(** Wire form with LF line endings.  Header values containing newlines
    are folded with a leading tab. *)

val parse : ?unquote:bool -> string -> (Message.t, string) result
(** Inverse of {!print} up to folding: folded header lines are unfolded
    with a single space.  A message with no blank line is all headers if
    every line looks like a field, otherwise an error.  [~unquote] also
    drops one ['>'] from each mboxrd-quoted body line, as {!Mbox} reads
    a chunk. *)

(** {1 Wire text by offsets}, for raw-mail ingest and MIME parts. *)

val scan_headers :
  string -> int -> int -> want:(string -> int -> int -> bool) -> (string -> string -> unit) -> int
(** [scan_headers buf off stop ~want f] reads the header block at the
    start of [buf.[off .. stop-1]] as {!parse} does: fields up to the
    first empty (or CR-only) line, a line ending in CR read without it,
    a folded line's trimmed pieces joined with one space.  For each
    field whose name slice [want] accepts, in order, [f name value]
    with the value trimmed and unfolded; the other fields, continuation
    lines included, cost no string.  Returns the body's offset ([stop]
    when there is no empty line), or [-1 - p] when the line at [p] is
    neither a field with a non-empty name free of spaces and tabs nor
    the continuation of one. *)

val fixup_body :
  unquote:bool -> string -> int -> int -> room:(int -> Bytes.t * int) -> int
(** [fixup_body ~unquote buf off stop ~room]: when some line of
    [buf.[off .. stop-1]] ends in CR or, with [~unquote], is mboxrd
    quoting ([">+From "]), asks [room (stop - off)] for a buffer and an
    offset [w] with that many bytes free, copies the lines there, each
    without one trailing CR and a quoted line without one ['>'], as
    {!parse} and [Mbox.parse] read a body, and returns the end of the
    copy; otherwise asks for nothing and returns [-1]. *)

val from_at : string -> int -> int -> bool
(** [from_at buf pos stop]: [buf.[pos .. stop-1]] starts with ["From "],
    an mbox separator line's opening. *)

val line_end : string -> int -> int -> int
(** [line_end buf pos stop]: the offset of the first ['\n'] in
    [buf.[pos .. stop-1]], or [stop]. *)

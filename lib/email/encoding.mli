(** MIME content-transfer-encodings: base64 (RFC 4648) and
    quoted-printable (RFC 2045 §6.7).

    Spam campaigns routinely base64- or QP-encode their payloads to dodge
    naive keyword filters; a filter that doesn't decode them tokenizes
    gibberish.  These are the strict, line-wrapped encoders the corpus
    generator uses; the liberal decoders a filter needs (real mail is
    sloppy) are part of {!Mime}'s walk. *)

val base64_encode : string -> string
(** Standard alphabet, [=]-padded, wrapped at 76 columns with LF. *)

val quoted_printable_encode : string -> string
(** Encodes bytes outside the printable ASCII range (and ['='] itself)
    as [=XX]; soft-wraps at 76 columns; encodes trailing spaces/tabs on
    a line. *)

(** BogoFilter-style tokenization: longer tokens admitted (up to 30
    characters, no skip placeholders), header tokens carry a
    ["head:"]-style field prefix for {e every} header, and URLs are kept
    as opaque tokens rather than cracked.  The learner on top is
    identical — the paper's footnote 1 scenario. *)

val name : string

val iter_spans :
  Spamlab_email.Header.t ->
  string ->
  int ->
  int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit
(** The token stream in document order: every header's words, prefixed
    with the lowercased field name, through [token]; then body words as
    byte slices through [span]. *)


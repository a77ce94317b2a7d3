(** SpamAssassin-Bayes-style tokenization: tokens up to 15 characters,
    longer words truncated to a ["sk:"]-prefixed 5-character stem
    (SpamAssassin's behaviour), Subject prefixed with ["HSubject:"]
    and other scanned headers with ["H<name>:"], URLs reduced to their
    hostname token. *)

val name : string

val iter_spans :
  Spamlab_email.Header.t ->
  string ->
  int ->
  int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit
(** The token stream in document order: scanned header words through
    [token], then short-enough body words and sk: stems as byte
    slices through [span] and url tokens through [token]. *)


(** Tokenizer interface and registry.

    The paper notes (§1 fn. 1) that SpamBayes, BogoFilter and
    SpamAssassin's Bayes component share the learning algorithm and
    differ primarily in tokenization; the laboratory therefore treats the
    tokenizer as a pluggable component so attacks can be evaluated across
    filter styles.

    A tokenizer is written once, as a span pass ({!S.iter_spans}).
    The string-level API below ({!iter_tokens}, {!tokenize},
    {!unique_tokens}, {!unique_counted_tokens}) is derived from it here,
    generically, so every consumer — interning ingest, feature
    extraction, attack construction, corpus statistics — sees the same
    token stream. *)

module type S = sig
  val name : string

  val iter_spans :
    Spamlab_email.Message.t ->
    span:(string -> int -> int -> unit) ->
    token:(string -> unit) ->
    unit
  (** The token stream of a message, in document order, possibly with
      repeats.  Plain words are delivered as [span buf off len] byte
      slices (valid only for the duration of the callback), while
      computed meta tokens (prefixes, skip:, url:, …) arrive as
      strings through [token]. *)

  val iter_body_spans :
    string ->
    int ->
    int ->
    span:(string -> int -> int -> unit) ->
    token:(string -> unit) ->
    unit
  (** [iter_body_spans buf off len] pushes the tokens the body of a
      {e simple} message (single-part, identity transfer encoding)
      with raw body [buf.[off..off+len-1]] contributes to
      {!iter_spans} — the fully zero-copy path raw-mbox ingest takes
      when a message needs no MIME processing. *)
end

type t = (module S)

val name : t -> string

val iter_spans :
  t ->
  Spamlab_email.Message.t ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit

val iter_body_spans :
  t ->
  string ->
  int ->
  int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit

val iter_tokens : t -> Spamlab_email.Message.t -> (string -> unit) -> unit
(** {!S.iter_spans} as strings: each slice is copied out with
    [String.sub], meta tokens pass through unchanged.  Same tokens,
    same order.  Nothing is interned. *)

val tokenize : t -> Spamlab_email.Message.t -> string list
(** {!iter_tokens} collected into a list. *)

val unique_counted_tokens : t -> Spamlab_email.Message.t -> string array * int
(** [unique_counted_tokens t msg] is the distinct tokens of
    [tokenize t msg], sorted, and the length of that stream — without
    building the list: {!iter_tokens} streams into a per-domain
    reusable buffer which is sorted and deduplicated in place.  Safe
    to call from pool workers. *)

val unique_tokens : t -> Spamlab_email.Message.t -> string array
(** Distinct tokens of a message, sorted.  SpamBayes both trains and
    classifies on the {e set} of tokens in a message, so this is the
    canonical feature extraction. *)

val spambayes : t
val bogofilter : t
val spamassassin : t

val all : (string * t) list
(** Registered tokenizers by name. *)

val find : string -> t option

(** Tokenizer interface and registry.

    The paper notes (§1 fn. 1) that SpamBayes, BogoFilter and
    SpamAssassin's Bayes component share the learning algorithm and
    differ primarily in tokenization; the laboratory therefore treats the
    tokenizer as a pluggable component so attacks can be evaluated across
    filter styles.

    A tokenizer is written once, as a span pass ({!S.iter_spans}) over
    header fields and a body slice.
    The string-level API below ({!tokenize}, {!unique_tokens}) is
    derived from it here, generically, so interning ingest and string
    feature extraction see the same token stream. *)

module type S = sig
  val name : string

  val iter_spans :
    Spamlab_email.Header.t ->
    string ->
    int ->
    int ->
    span:(string -> int -> int -> unit) ->
    token:(string -> unit) ->
    unit
  (** [iter_spans headers buf off len] is the token stream of the
      message with these header fields and body
      [buf.[off .. off+len-1]], in document order, possibly with
      repeats.  Words are delivered as [span buf off len] byte slices
      (valid only for the duration of the callback), while computed
      meta tokens (prefixes, url:, email, …) arrive as strings through
      [token].  The body is read in place: a raw mbox chunk's body
      region and a [Message.t]'s body string take the same path. *)
end

type t = (module S)

val name : t -> string

val iter_spans :
  t ->
  Spamlab_email.Header.t ->
  string ->
  int ->
  int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit

val iter_message :
  t ->
  Spamlab_email.Message.t ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit
(** {!iter_spans} over a message's headers and whole body: the one
    helper every [Message.t] entry point below goes through. *)

val tokenize : t -> Spamlab_email.Message.t -> string list
(** {!iter_message} as a list of strings: each slice is copied out
    with [String.sub], meta tokens pass through unchanged.  Same
    tokens, same order.  Nothing is interned. *)

val unique_tokens : t -> Spamlab_email.Message.t -> string array
(** The distinct tokens of [tokenize t msg], sorted — without building
    the list: the string stream goes into a per-domain reusable buffer
    which is sorted and deduplicated in place.  Safe to call from pool
    workers.  Interns nothing; the id form of the same set is
    [Dataset.tokenize_ids]. *)

val spambayes : t
(** The default tokenizer; the others are reached by name. *)

val all : (string * t) list
(** Registered tokenizers by name. *)

val find : string -> t option

(** SpamBayes-style tokenization (tokenizer.py, simplified but faithful
    in the properties the attacks exploit):

    - body words are lowercased, stripped of edge punctuation, and kept
      when 3–12 characters long;
    - longer words become ["skip:<c> <n>"] placeholder tokens (first
      character and length rounded down to a multiple of 10);
    - URL-like words are cracked into [proto:]/[url:] tokens;
    - words containing ['@'] produce [email addr:domain] /
      [email name:local] tokens;
    - Subject words are emitted with a ["subject:"] prefix (and also as
      plain tokens, as SpamBayes does);
    - From/To/Reply-To addresses produce prefixed address tokens;
    - a body with 8-bit bytes yields a ["8bit%:<pct>"] meta token;
    - bodies are read through the MIME layer: transfer encodings
      (base64, quoted-printable) are reversed, multiparts traversed, and
      HTML parts deconstructed into prose tokens, ["html:<tag>"] meta
      tokens and cracked link URLs;
    - Content-Type and Content-Transfer-Encoding headers yield
      structural meta tokens (base64-encoded spam is itself a tell);
    - Received headers yield relay tokens: hostname components as
      ["received:<part>"] and IP /16 prefixes as ["received:ip:a.b"]. *)

val name : string

val iter_spans :
  Spamlab_email.Header.t ->
  string ->
  int ->
  int ->
  span:(string -> int -> int -> unit) ->
  token:(string -> unit) ->
  unit
(** The token stream in document order: plain body words and skip:
    buckets are delivered as byte slices through [span]; the other
    computed meta tokens (url:, email, subject:, 8bit%, …) arrive as
    strings through [token].  The body goes through
    {!Spamlab_email.Mime.text_leaves}. *)

val max_word_length : int
(** Words longer than this become skip tokens (12, as in SpamBayes). *)

val min_word_length : int
(** Words shorter than this are dropped (3, as in SpamBayes). *)

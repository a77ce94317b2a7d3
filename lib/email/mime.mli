(** A small MIME layer: content types, and the decoder that finds the
    text a spam filter must tokenize in the mail people actually
    receive (HTML bodies, base64-obfuscated payloads,
    multipart/alternative).

    The model stays deliberately shallow: no nested message/rfc822
    recursion beyond a fixed depth, no charset conversion (the
    tokenizer is byte-oriented, as SpamBayes' effectively was). *)

type content_type = {
  media_type : string;  (** Lowercased, e.g. ["text"]. *)
  subtype : string;  (** Lowercased, e.g. ["html"]. *)
  parameters : (string * string) list;
      (** Lowercased names; values unquoted. *)
}

val content_type_of_string : string -> (content_type, string) result
(** Parses ["text/html; charset=utf-8; boundary=\"b\""]. *)

val parameter : content_type -> string -> string option

(** {1 The decoder}

    One walk over a message's body by offsets: only decoded leaves (and
    a part body whose lines end in CR) are copied, to per-domain
    scratch. *)

type text_kind = Plain | Html

type leaves
(** A message's textual leaves: per-domain scratch, valid until the
    next {!text_leaves} on the same domain. *)

val text_leaves : Header.t -> string -> int -> int -> leaves
(** [text_leaves headers buf off len] walks the message with these
    header fields and body [buf.[off .. off+len-1]].  Its leaves, in
    document order, recursing through nested multiparts (depth ≤ 4):
    - a non-MIME or text/plain message or part is its body, after the
      Content-Transfer-Encoding is reversed (base64 and
      quoted-printable; anything else, and a base64 body with a byte
      outside the alphabet, passes through as it is);
    - text/html is an [Html] leaf (tokenizers strip the tags);
    - a multipart with no boundary, or none of whose parts parses, is
      one [Plain] leaf of its body as it is;
    - non-text leaves are skipped.
    Never empty: with no textual leaf, the message's decoded body is
    the one [Plain] leaf. *)

val iter_leaves : leaves -> (text_kind -> string -> int -> int -> unit) -> unit
(** [iter_leaves l f] calls [f kind buf off len] on each leaf in
    order; the slice is the message's own body or the scratch. *)

(* Builders, used by the corpus generator. *)

val make_html :
  ?headers:Header.t -> string -> Message.t
(** Wrap an HTML body with the proper Content-Type. *)

val with_base64_transfer : Message.t -> Message.t
(** Re-encode the body as base64 and set Content-Transfer-Encoding. *)

val with_quoted_printable_transfer : Message.t -> Message.t

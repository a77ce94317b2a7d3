(** An email message: headers plus a body string.

    This is the unit the corpus generator produces, the tokenizer
    consumes, and the attacks construct.  MIME structure, when there is
    any, stays in the body bytes, which {!Mime.text_leaves} reads just
    as it reads the body of a raw mbox chunk. *)

type t = { headers : Header.t; body : string }

val make : ?headers:Header.t -> string -> t
(** [make body] with optionally supplied headers (default none — the
    paper's non-focused attack emails carry an empty header). *)

val headers : t -> Header.t
val body : t -> string

val subject : t -> string option

val with_body : t -> string -> t

val size_bytes : t -> int
(** Serialized size (headers + separator + body). *)

val equal : t -> t -> bool

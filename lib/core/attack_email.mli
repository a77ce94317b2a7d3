(** Attack email construction under the contamination assumption (§2.2):
    the attacker controls message {e bodies} but not headers, and attack
    messages enter training labeled as spam.

    Non-focused attacks carry an empty header (the experimental
    restriction of §4.1); the focused attack copies the entire header of
    a randomly chosen spam message. *)

val body_of_words : string list -> string
(** Lay the payload words out as line-wrapped text whose SpamBayes
    tokenization is exactly the given words (each payload word must
    already be a clean 3–12 character token; longer or shorter words
    would be transformed by the tokenizer). *)

val make : words:string list -> Spamlab_email.Message.t
(** Attack message with an empty header. *)

val make_with_header :
  header:Spamlab_email.Header.t -> words:string list ->
  Spamlab_email.Message.t
(** Attack message wearing a stolen header. *)

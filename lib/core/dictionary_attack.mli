(** The dictionary attack (§3.2) and its variants.

    An Indiscriminate Causative Availability attack: every attack email
    contains an entire word list likely to cover future legitimate mail.
    Trained as spam, the list's tokens acquire spammy scores and future
    ham inherits them.  Variants differ only in the word source:

    - {e aspell}: a full English-style dictionary (no slang);
    - {e usenet}: the top-N frequency-ranked Usenet words (includes the
      colloquialisms real ham contains);
    - {e optimal}: exactly the support of the victim's ham distribution
      (the §3.4 upper bound, infeasible for a real attacker but
      simulable here). *)

type t

val make : name:string -> words:string array -> t
(** @raise Invalid_argument on an empty word list. *)

val name : t -> string
val word_count : t -> int

val taxonomy : Taxonomy.t

val email : t -> Spamlab_email.Message.t
(** One attack message: empty header, the whole word list as body.
    Every attack email of a variant is identical, so one message
    suffices; the victim trains it [k] times. *)

val emails : t -> count:int -> Spamlab_email.Message.t list

val payload : Spamlab_tokenizer.Tokenizer.t -> t -> int array
(** Distinct token ids of one attack email
    ({!Spamlab_corpus.Dataset.tokenize_ids}) — what lands in the token
    database when the victim trains it.  Interns the words; caching
    per tokenizer is the caller's job, this recomputes. *)

val raw_token_count : Spamlab_tokenizer.Tokenizer.t -> t -> int
(** Stream length (non-deduplicated) of one attack email — the
    token-volume statistic of §4.2. *)

(** Low-level text splitting shared by every tokenizer variant. *)

val split_whitespace : string -> string list
(** Split on runs of spaces, tabs, newlines and carriage returns;
    never returns empty strings. *)

val strip_punctuation : string -> string
(** Remove leading and trailing characters outside [A-Za-z0-9'$-]
    (apostrophes, dollar signs and hyphens are meaningful inside spam
    tokens: ["don't"], ["$99"], ["v-i-a-g-r-a"]). *)

val words : string -> string list
(** [split_whitespace] then [strip_punctuation] then drop empties;
    lowercases everything. *)

val is_ascii_alpha : char -> bool
val is_digit : char -> bool

val iter_word_spans :
  string -> int -> int -> (string -> int -> int -> unit) -> unit
(** [iter_word_spans s off len f] delivers every word {!words} would
    produce for [String.sub s off len] as a byte slice
    [f buf woff wlen] instead of an allocated string: punctuation is
    stripped by offsets on the raw buffer, and a word is copied (into a
    per-domain scratch, lowercased) only when it actually contains an
    uppercase byte.  The slice is valid only for the duration of the
    callback — intern it or copy it before returning.  Beyond what
    [f] allocates, a call allocates nothing per word: its minor words
    do not depend on the slice (the scratch only grows, to the longest
    capitalized word seen).
    @raise Invalid_argument if [off]/[len] do not denote a slice of
    [s]. *)

val has_high_bit : string -> bool
(** True if any byte is >= 0x80 (8-bit character heuristic used by
    SpamBayes to flag likely non-English/binary content). *)

val count_occurrences : char -> string -> int

val count_high_sub : string -> int -> int -> int
(** Number of bytes >= 0x80 in the slice — the span path's 8-bit
    accounting without materializing the body. *)

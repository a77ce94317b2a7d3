(** Low-level text splitting shared by every tokenizer variant.  A word
    is a maximal run of bytes other than space, tab, newline and
    carriage return, lowercased, with leading and trailing characters
    outside [A-Za-z0-9'$-] stripped (apostrophes, dollar signs and
    hyphens are meaningful inside spam tokens: ["don't"], ["$99"],
    ["v-i-a-g-r-a"]); a run that strips to nothing is no word.
    {!iter_marked_words} is the one splitter; {!iter_word_spans} and
    {!words} drop its marks. *)

val is_ascii_alpha : char -> bool
val is_digit : char -> bool

val iter_word_spans :
  string -> int -> int -> (string -> int -> int -> unit) -> unit
(** [iter_word_spans s off len f] delivers every word of
    [String.sub s off len], in order, as a byte slice
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

val iter_marked_words :
  string -> int -> int -> (string -> int -> int -> int -> int -> unit) -> unit
(** {!iter_word_spans} with two marks found in the same pass over each
    word: [f buf woff wlen colon at], where [colon] and [at] are the
    word-relative indices of its first [':'] and first ['@'], or [wlen]
    when it has none.  The URL-shape and address tests read them instead
    of scanning the word again. *)

val words : string -> string list
(** Every word of a string, in order, as fresh strings:
    {!iter_word_spans} collected. *)

val count_high_sub : string -> int -> int -> int
(** Number of bytes >= 0x80 in the slice — the span path's 8-bit
    accounting without materializing the body. *)

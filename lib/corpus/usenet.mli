(** The Usenet word source (§3.2, §4.2): a frequency-ranked word list
    whose distribution is closer to the victim's email than a dictionary
    is — it contains the colloquialisms and misspellings an aspell-style
    dictionary misses, while sharing roughly 61,000 words with it (the
    overlap the paper reports).

    Rank order models simulated Usenet frequency: shared vocabulary
    first, then colloquial, then ham- and spam-specific vocabulary, then
    the {e head} of the standard rare tail (half) followed by the head
    of the nonstandard tail (a ninth) — a frequency-ranked corpus
    only partially covers long tails — then dictionary filler, then
    Usenet-only junk present in neither the dictionary nor any email. *)

val default_total : int
(** 90,000 — the paper's "top ranked words from the Usenet corpus". *)

val ranked :
  ?total:int -> ?dictionary_overlap:int -> Vocabulary.t -> string array
(** The full ranked list, truncated to [total] if the components exceed
    it.  [dictionary_overlap] defaults to 61,000, the approximate
    aspell/Usenet overlap reported in §4.2.
    @raise Invalid_argument if [total <= 0]. *)

val top : string array -> int -> string array
(** [top ranked n] is the [n] highest-ranked words (clamped to the list
    length). *)

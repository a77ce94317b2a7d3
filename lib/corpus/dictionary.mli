(** Attacker word sources (§3.2).

    [aspell] models the GNU aspell English dictionary used by the basic
    dictionary attack: it contains every {e standard} vocabulary word —
    so it covers most of what the victim's ham contains — plus a large
    mass of filler words the victim never uses, and it {e misses} the
    colloquial words (slang, misspellings) that real email contains.

    The paper's dictionary has 98,568 words; that is the default
    size. *)

val aspell_size : int
(** 98,568. *)

val aspell : ?size:int -> Vocabulary.t -> string array
(** Common standard vocabulary, then the standard rare tail, then
    deterministic filler — truncated or extended to [size] words.  The
    colloquial and nonstandard-rare categories are never included (a
    dictionary doesn't know slang or the victim's project jargon).
    @raise Invalid_argument if [size <= 0]. *)

val overlap_count : string array -> string array -> int
(** Number of words the two lists share (for the Usenet/aspell overlap
    statistic reported in §4.2). *)

(** The laboratory's token universe, partitioned the way the attacks care
    about:

    - {e shared}: common words used by both ham and spam (function words,
      everyday vocabulary);
    - {e ham-specific}: business/professional vocabulary (the Enron
      flavour of the TREC corpus);
    - {e spam-specific}: campaign vocabulary (pharma, finance, adult);
    - {e colloquial}: slang and misspellings that occur in real email and
      in Usenet postings but {e not} in an aspell-style dictionary — the
      paper's explanation of why the Usenet attack beats the Aspell
      attack (§4.2);
    - {e rare_standard}: the long tail of legitimate English — words any
      dictionary lists but a frequency-ranked corpus only partially
      covers;
    - {e rare_nonstandard}: the long tail of email-specific tokens
      (names, codes, project jargon) found in {e no} public word source
      — only the simulated optimal attack covers these.

    All categories are disjoint.  Standard categories are fixed index
    ranges of {!Wordgen.word}; colloquial words are misspellings of
    shared words plus fresh slang, derived deterministically from the
    seed.

    Coverage by attacker word source (the laboratory's central knob):

    {v
                      shared ham spam colloq rare_std rare_non
      aspell            x     x    x     -      all      -
      usenet (full)     x     x    x     x      half   quarter
      optimal (ham)     x     x    -     x      all      all
    v} *)

type sizes = {
  shared : int;
  ham_specific : int;
  spam_specific : int;
  colloquial : int;
  rare_standard : int;
  rare_nonstandard : int;
}

type t = private {
  shared : string array;
  ham_specific : string array;
  spam_specific : string array;
  colloquial : string array;
  rare_standard : string array;
  rare_nonstandard : string array;
  filler_start : int;
      (** First {!Wordgen.word} index not used by any category; filler
          words for the dictionary and Usenet lists start here. *)
}

val create : ?sizes:sizes -> seed:int -> unit -> t
(** Deterministic in [seed].  [sizes] defaults to 8000 / 6000 / 4000 /
    3000 / 60000 / 180000.  @raise Invalid_argument if any size is
    negative or [shared] is zero (misspellings need a source). *)

val standard_words : t -> string array
(** shared ∪ ham-specific ∪ spam-specific (concatenated) — the common
    part of an aspell-style dictionary. *)

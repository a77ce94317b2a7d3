(** URL cracking, after SpamBayes' [crack_urls]: a URL in a message body
    is replaced by structured tokens ([proto:http], [url:host-component],
    [url:path-word]) so that campaign infrastructure shows up as
    high-signal features regardless of the surrounding prose. *)

val looks_like_url_at : string -> int -> int -> colon:int -> bool
(** [looks_like_url_at s off len ~colon]: the slice, whose first [':']
    is at [colon] ([len] when it has none, as
    {!Text.iter_marked_words} reports it), is [scheme://...] for a
    known scheme (http, https, ftp, mailto) or a bare [www.]-prefixed
    host.  Allocates nothing; assumes the slice is already lowercased
    (the word iterator guarantees this). *)

val crack : string -> string list
(** [crack w] is the token list for a URL-like word; [w] itself
    (lowercased) is not included.  Returns [[]] if [w] is not URL-like. *)

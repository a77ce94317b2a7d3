(** HTML handling for tokenization, after SpamBayes' approach: strip
    markup so prose words tokenize normally, but keep the markup's
    {e signal} — spam HTML is full of tells (tiny fonts, tracking
    images, links whose text hides their target).

    One linear scan, after one linear entity pass (skipped when the
    slice holds no ['&']):
    - the named entities that matter for tokenization ([&amp;] [&lt;]
      [&gt;] [&quot;] [&apos;] [&nbsp;], any case) and decimal [&#NN;]
      escapes of bytes 1–255 decode first, so an escaped ['<'] opens a
      tag; an unknown entity passes through verbatim;
    - ["html:<tag>"] for each opening element of a small
      suspicious-tag set (a, img, font, table, iframe, script, style,
      form, input);
    - the [href=]/[src=] values of every tag, for the URL cracker;
    - each tag becomes one space of visible text; comments, and the
      contents of script and style elements, contribute none. *)

val iter :
  string ->
  int ->
  int ->
  meta:(string -> unit) ->
  url:(string -> int -> int -> unit) ->
  text:(string -> int -> int -> unit) ->
  unit
(** [iter buf off len ~meta ~url ~text] deconstructs
    [buf.[off .. off+len-1]]: every meta token in document order, then
    every href/src value as a slice (as written; the URL cracker
    lowercases it), all of one tag's hrefs before its srcs, then the
    visible text as one slice.  Slices of the decoded input and the
    text are per-domain scratch, valid only during the callback.
    Allocates nothing beyond what the callbacks do, once the scratch
    has grown to the input. *)

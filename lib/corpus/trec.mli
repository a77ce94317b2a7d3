(** Labeled corpus builder — the stand-in for TREC 2005.

    The real corpus has 92,189 messages, 57.3% spam.  Experiments here
    sample inboxes of the sizes Table 1 prescribes (2,000–10,000
    messages at 50% or 75% spam prevalence) from the generative models;
    {!generate} produces such a sample directly. *)

type labeled = Spamlab_spambayes.Label.gold * Spamlab_email.Message.t

val generate :
  ?pool:Spamlab_parallel.Pool.t ->
  Generator.config ->
  Spamlab_stats.Rng.t ->
  size:int ->
  spam_fraction:float ->
  labeled array
(** Exactly [round (size × spam_fraction)] spam and the rest ham, in
    shuffled order.  Each message is built from its own rng child,
    pre-split by index ({!Spamlab_stats.Rng.split_indexed}) from one
    advance of [rng]: the corpus is a pure function of the rng state,
    [size] and [spam_fraction], and with [?pool] message construction
    fans over the domain pool with output identical at every jobs
    count.  @raise Invalid_argument if [size < 0] or the fraction is
    outside [0,1]. *)

val ham_only : labeled array -> Spamlab_email.Message.t array
val spam_only : labeled array -> Spamlab_email.Message.t array

val counts : labeled array -> int * int
(** (ham, spam) counts. *)

val to_mbox_files :
  ham_path:string -> spam_path:string -> labeled array -> unit
(** Persist a corpus as two mbox files (the layout TREC tooling and the
    CLI use). *)

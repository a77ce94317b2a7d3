(** Multi-tenant poisoning at provider scale: 10³–10⁶ mailboxes, each
    with its own Bayes state in a {!Spamlab_store.Store}, a poisoned
    subset, and per-user attack/defense outcomes.

    Every tenant belongs to one of a few {e communities} — corpora
    generated from the same substrate (one vocabulary, one pair of
    language models) under distinct rng streams and spam prevalences,
    so mailboxes are correlated but not identical, like real users of
    one provider.  Each user trains a small sample of their community
    corpus on top of the shared global prior; a Bernoulli-chosen subset
    additionally receives a dictionary attack ([attack_count] payload
    spam trainings).  Everyone then classifies their community's
    held-out ham; poisoned users untrain the attack (the defense) and
    classify again.

    Deterministic: per-user randomness is [Rng.split_indexed] off one
    named stream, users fan over the lab pool in fixed chunks, and the
    report aggregates in chunk order — stdout is byte-identical at
    every [--jobs] and across checkpoint resume.  Store traffic
    counters are returned separately (they are {e not}
    resume-invariant: restored chunks skip re-training). *)

type config = {
  users : int list;  (** Sweep points (tenant counts), run in order. *)
  communities : int;
  train_per_user : int;
  eval_per_user : int;
  poison_fraction : float;  (** Bernoulli per user. *)
  attack_count : int;  (** Attack emails trained into a poisoned user. *)
  store_dir : string option;
      (** Sharded store root ([dir/users-N] per sweep point); [None]
          runs on the in-memory backend. *)
  shards : int;
  cache : int;
}

val default_config : config
(** 1000 users, 8 communities, 3 train / 2 eval messages per user, 10%
    poisoned with 4 attack emails, memory backend, default store
    geometry. *)

val run : Lab.t -> config -> (string * string, string) result
(** [(report, detail)]: the deterministic per-sweep-point report for
    stdout and the store-traffic lines for stderr.  [Error] on an
    unusable store directory. *)

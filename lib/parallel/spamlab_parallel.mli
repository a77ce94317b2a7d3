(** Deterministic domain pool for fanning independent experiment cells
    (folds, targets, trials) across OCaml 5 domains.

    Determinism contract: [Pool.map_array pool f arr] equals
    [Array.map f arr] — same values, same order, same exception — at
    every [jobs] setting, provided [f] is pure per element (in the
    laboratory, tasks derive their randomness from named
    {!Spamlab_stats.Rng.split_named} streams rather than sharing a
    mutable generator). *)

val validate_jobs : int -> (int, string) result
(** [Ok n] when [n >= 1]; otherwise [Error msg] with the one shared
    jobs-validation message used by every entry point ([--jobs] flags,
    [SPAMLAB_JOBS], {!Spamlab_eval.Lab.create}). *)

val parse_jobs : string -> (int, string) result
(** {!validate_jobs} composed with integer parsing (leading/trailing
    whitespace tolerated); the [Error] message is the same shared one. *)

val default_jobs : unit -> int
(** The [SPAMLAB_JOBS] environment variable if set (via
    {!parse_jobs}), otherwise [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [SPAMLAB_JOBS] does not parse as a
    positive int. *)

exception Task_failed of { site : string; attempts : int }
(** A pool task kept failing with transient faults through every
    supervised attempt.  Carries the fault site and the total attempt
    count; propagates from {!Pool.map_array} via the usual
    lowest-raising-index rule. *)

module Pool : sig
  type t

  val create : jobs:int -> t
  (** Spawn [jobs - 1] worker domains ([jobs = 1] spawns none and every
      map runs inline).  @raise Invalid_argument if [jobs < 1]. *)

  val jobs : t -> int

  val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Order-preserving parallel map.  The calling domain participates,
      so all [jobs] domains compute.  If any [f] raises, the exception
      of the lowest raising index is re-raised at the join (with its
      backtrace); which exception propagates does not depend on
      scheduling.  Nested calls from inside a worker fall back to the
      sequential path rather than deadlocking.

      Every element is evaluated under task supervision: the
      {!Spamlab_fault} site ["pool.task"] is checked before each
      attempt, and faults classified transient
      ({!Spamlab_fault.is_transient}) are retried with a deterministic
      [Domain.cpu_relax] backoff, up to 3 total attempts (the first run
      plus two retries) — each retry bumps the [fault.retried] obs counter.  An element
      still failing transiently after the last attempt raises
      {!Task_failed}.  Supervision applies identically on the
      sequential fallback path, so retried runs remain
      jobs-invariant.

      When {!Spamlab_obs.Obs} is enabled, parallel maps record a
      [pool.map] span, each submitted helper records [pool.queue_wait]
      and [pool.task] spans, and every claimed element ticks a
      per-domain [pool.item] count.  These describe scheduling and are
      {e not} invariant under different [jobs] settings (the
      experiment-layer counters are). *)

  val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

  val shutdown : t -> unit
  (** Stop and join the workers.  Maps submitted afterwards raise. *)
end

(** Deterministic, seed-derived fault injection.

    The laboratory's robustness layer needs reproducible failures: a
    retried transient fault must strike the same site on the same
    occasion in every run of the same spec, or a "survives faults"
    test proves nothing.  This module is a process-wide registry of
    {e fault sites} — named program points (["pool.task"],
    ["db.save.write"], ["checkpoint.record"]) that consult the
    registry via {!check}.  A spec, from [--fault-spec] or the
    [SPAMLAB_FAULTS] environment variable, arms selected sites.

    {2 Overhead and determinism contract}

    Disabled (the default, and whenever the spec does not name a
    site), {!check} is one atomic load and a return — no allocation,
    no clock, no randomness — so instrumented binaries behave
    byte-identically to uninstrumented ones.  Armed, every decision is
    a pure function of (spec, seed, per-site occurrence number): the
    nth {!check} of a site always decides the same way, independent of
    scheduling, wall clock, or [--jobs].

    {2 Spec grammar}

    {v
    spec       ::= clause (',' clause)*
    clause     ::= site ':' kind selector
    kind       ::= "transient" | "fatal" | "crash"
    selector   ::= '@' occurrence ('+' occurrence)*   1-based hit numbers
                 | '~' probability                    float in [0,1]
    v}

    Examples: ["pool.task:transient@2+7"] (the 2nd and 7th pool task
    fail transiently), ["db.save.write:crash@1"] (the first database
    write dies mid-write), ["pool.task:transient~0.01"] (each task
    check fails with probability 0.01, derived from the seed).

    Kinds: [Transient] faults model recoverable blips (I/O hiccups,
    task restarts) — {!Spamlab_parallel} retries them; [Fatal] faults
    are injected errors that supervision must surface, not mask;
    [Crash] simulates a kill — the process exits immediately with
    status 70, leaving whatever half-written state exists on disk for
    recovery code to face. *)

type kind = Transient | Fatal | Crash

exception
  Injected of { site : string; kind : kind; occurrence : int }
      (** Raised by {!check} at an armed site ([Transient] and [Fatal]
          kinds; [Crash] never raises — it exits). [occurrence] is the
          1-based count of {!check} calls on that site so far. *)

val configure : ?seed:int -> string -> (unit, string) result
(** Parse a spec and arm its sites, replacing any previous
    configuration.  [seed] (default 0) drives probability selectors;
    occurrence selectors ignore it.  The empty string disarms
    everything (equivalent to {!disable}).  Not safe to call while
    pool maps are running.  [Error] describes the first syntax
    problem. *)

val configure_env : ?seed:int -> unit -> (unit, string) result
(** {!configure} from [SPAMLAB_FAULTS]; [Ok ()] when unset. *)

val disable : unit -> unit
(** Disarm all sites.  Testing hook; also what a spec-free run is. *)

val check : string -> unit
(** [check site] — the probe placed at a fault site.  Counts the
    occurrence and, when the armed selector fires: [Transient]/[Fatal]
    raise {!Injected}; [Crash] prints one line to stderr and exits the
    process with status 70 (simulating a kill at this exact point).
    Always a no-op for unarmed sites. *)

val is_transient : exn -> bool
(** True exactly for [Injected {kind = Transient; _}] — the
    classification the pool's retry supervision keys on. *)

val known_sites : (string * string) list
(** Every fault site compiled into the tree, as [(name, description)]
    sorted by name.  {!check} accepts any string, but this catalogue is
    the single source of truth for documentation ([spamlab fault
    sites]), for the chaos orchestrator's randomized schedules, and for
    the test that pins the listing to the sites the suites exercise.
    Adding a [check] call without declaring its site here fails that
    test. *)

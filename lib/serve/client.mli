(** Client side of the spamlab daemon protocol: single-request
    round-trips (spamc style, one connection per request) and a
    deterministic load generator for the soak/bench harness.

    {2 Crash recovery}

    The daemon only persists state at a publish; a crash loses the
    training delta since the last one.  The load generator therefore
    keeps every [TRAIN]/[UNTRAIN] request whose acknowledgement showed
    [pending > 0] in an {e unpublished buffer}, cleared when an ack
    shows [pending = 0] (a publish incorporated everything so far).
    When an ack reveals a daemon restart, the generator {e replays}
    the buffer in original order — so the multiset of effective
    training is identical to an uninterrupted run, and the final
    published database is byte-identical.

    This holds for overloaded and repeatedly-crashing daemons:

    {ul
    {- {b Restart detection.}  Every [TRAIN]/[UNTRAIN]/[PUBLISH] ack
       carries the daemon's [boot=] id; a changed boot is the one
       restart signal, covering restarts that fall {e between}
       round-trips (no transport error to trip on).  The first
       mutation ack records the boot before anything is buffered, so
       nothing is lost while it is unknown.  A torn connection alone
       never triggers replay — it may be deadline reaping or admission
       shedding, where a blind replay would double-train — the client
       just retries and lets the next ack's boot decide.}
    {- {b Reconciled replay.}  A publish commits {e every} client's
       journaled ops, so a buffered request may already be durable
       (another client published; we never saw [pending = 0]) and
       re-sending it would double-apply.  Tenant TRAIN acks carry
       [user.msgs=], the tenant's total message count; on restart the
       client probes each buffered tenant's surviving count with a
       zero-message TRAIN and skips entries at or below it — exact,
       because each tenant has a single writer and crash survival is
       a prefix of the dead boot's journal order.  Skipped entries
       stay buffered in case this boot also dies unpublished.}
    {- {b Backoff.}  [BUSY] / [ERR DEGRADED] answers are absorbed
       with capped exponential backoff under seed-derived
       deterministic jitter, so a load run against a shedding or
       degraded daemon completes with the same summary bytes as an
       uncontended one.}} *)

type conn

type error = {
  context : string;  (** what was being attempted *)
  errno : Unix.error option;
      (** the precise errno when the failure was a syscall —
          [ECONNREFUSED] (daemon down), [ECONNRESET]/[EPIPE] (torn
          mid-exchange), [ENOENT] (socket file not bound yet), … *)
  recoverable : bool;
      (** whether a reconnect-and-retry can help: true for
          down/torn-connection errnos and torn response frames, false
          for configuration problems (bad address, [EACCES]) — the
          backoff logic fails fast on those. *)
}

val error_message : error -> string
(** ["context: strerror"] — the human rendering. *)

val connect : Daemon.addr -> (conn, error) result
val close : conn -> unit

val request : conn -> Protocol.request -> (Protocol.response, error) result
(** Send one request and read its response.  [Error] is a transport or
    framing failure (daemon gone, torn response) — the connection is
    dead; a protocol-level [Err] arrives as [Ok (Err _)] and [BUSY] as
    [Ok Busy]. *)

val roundtrip : Daemon.addr -> Protocol.request -> (Protocol.response, error) result
(** Connect, {!request}, close. *)

val stall :
  addr:Daemon.addr -> bytes:string -> hold_s:float -> (string, error) result
(** Adversarial parasite for the overload gates: connect, send [bytes]
    (typically half a header, possibly nothing), then stay silent up
    to [hold_s] seconds.  [Ok "reaped"] when the daemon closed the
    connection first — its deadline/idle reaping worked — and
    [Ok "held"] when the hold expired with the connection still up. *)

(** {1 Deterministic load generation} *)

type load_config = {
  addr : Daemon.addr;
  seed : int;  (** Sole source of corpus and schedule randomness. *)
  clients : int;  (** Logical clients; each sends an opening PING. *)
  train_size : int;  (** Total messages trained. *)
  train_batch : int;  (** Messages per TRAIN request (single-label). *)
  eval_size : int;  (** Messages classified after the final publish. *)
  classify_batch : int;
  spam_fraction : float;
  users : int;
      (** Tenants: [> 0] deals messages round-robin across that many
          fixed [User] names (TRAIN batches keyed per tenant, each
          CLASSIFY batch addressed to one) — requires the daemon to run
          a tenant store.  [0] (default) sends no [User] header and
          reproduces the single-filter schedule byte for byte. *)
  user_prefix : string;
      (** Prepended to every tenant name (["c0-u000"]), so concurrent
          load processes against one daemon can address disjoint
          tenant sets and keep their verdict streams deterministic.
          Default [""] — the historical names, byte for byte. *)
  reconnect_attempts : int;
      (** Total recovery budget per logical request: transport
          reconnects, [BUSY] and [ERR DEGRADED] backoffs all draw
          from it.  Backoff delays are capped-exponential with
          seed-derived deterministic jitter. *)
  reconnect_delay_s : float;
}

val default_load : addr:Daemon.addr -> seed:int -> load_config
(** 2 clients, 96 train / 48 eval messages, batches of 8, 50% spam,
    50 × 0.2 s reconnect budget. *)

type load_report = {
  summary : string;
      (** Deterministic: request/message tallies and every CLASSIFY
          verdict line.  Byte-identical across daemon [--jobs] values
          and across crash-and-replay vs uninterrupted runs. *)
  detail : string;
      (** Not deterministic: reconnects, publish seq, wall time. *)
  trained : int;
  classified : int;
  reconnects : int;
  wall_s : float;
}

val load : load_config -> (load_report, string) result
(** Run the schedule: per-client PING, single-label TRAIN batches over
    a generated corpus, PUBLISH, CLASSIFY batches over a held-out
    corpus, STATS.  [Error] when the daemon stays unreachable through
    the reconnect budget or answers a protocol [Err] to a request the
    schedule needs ([Ok] acks with [malformed > 0] are reported, not
    fatal). *)

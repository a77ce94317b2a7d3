(** Process-wide observability: monotonic-clock spans with a
    thread-safe, domain-aware registry, counters held in one
    {!Metrics} registry, an optional JSONL trace sink, and a
    plain-text metrics dump.

    {2 Overhead contract}

    Everything is {e disabled by default}.  While disabled:

    - {!span} is a flag test plus a tail call of the thunk — no
      allocation, no clock read, no lock;
    - {!add}/{!incr}/{!tick} are a flag test and return;
    - instrumented code produces byte-identical output to
      uninstrumented code, because nothing here writes to any channel
      until {!dump_metrics} or {!stop} is called.

    While enabled, counter updates are a single atomic fetch-and-add
    (no lock), and span closes take one mutex-guarded registry update
    (plus two JSONL lines when a trace sink is open).  The mutex is
    only contended by simultaneous span closes, which in the
    experiment harness happen at per-fold/per-grid-point granularity,
    not per message.

    {2 Jobs invariance}

    Counter totals and span {e counts} for experiment-layer
    instrumentation are pure functions of the work done, so they are
    identical at every [--jobs] setting (the determinism contract of
    {!Spamlab_parallel}).  Span {e durations}, per-domain breakdowns,
    and the [pool.*] scheduling instrumentation necessarily reflect
    actual scheduling and are not jobs-invariant.

    {2 Trace format}

    The sink is JSON Lines: one flat JSON object per line.

    - [{"ev":"meta","format":"spamlab-trace","version":1}] — first line;
    - [{"ev":"span_open","name":N,"id":I,"domain":D,"t_ns":T}]
    - [{"ev":"span_close","name":N,"id":I,"domain":D,"t_ns":T,"dur_ns":DUR}]
      — every open is followed (not necessarily adjacently) by exactly
      one close with the same [id];
    - [{"ev":"counter","name":N,"value":V}] — final counter values,
      written by {!stop}, sorted by name.

    Timestamps are nanoseconds relative to the first enable call, from
    {!Clock} (monotonic). *)

type counter
(** Handle to a named counter.  Handles are cheap and may be kept in
    module-level bindings; re-registering a name returns the same
    underlying cell. *)

(** {1 State} *)

val enabled : unit -> bool
(** Whether tracing or metrics are on — the master gate on all
    recording. *)

val start_trace : path:string -> unit
(** Open [path] as the JSONL sink (truncating) and enable tracing.
    @raise Sys_error if the file cannot be opened.
    @raise Invalid_argument if a sink is already open. *)

val enable_metrics : unit -> unit
(** Enable in-memory aggregation for {!dump_metrics} (independent of
    tracing). *)

val stop : unit -> unit
(** Flush final counter values to the sink, close it, and disable all
    recording (tracing, metrics).  Aggregated data survives —
    {!dump_metrics} reads the registry, not the flags — so call it
    after [stop].  Idempotent. *)

(** {1 Recording} *)

val counter : string -> counter

val add : counter -> int -> unit
(** Atomic add; a no-op while disabled (so totals reflect only the
    instrumented window). *)

val incr : counter -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when enabled, records its wall
    duration under [name] for the calling domain (and emits
    open/close events when tracing).  Exceptions propagate with their
    backtraces; the span is closed either way. *)

val record_span : string -> start_ns:int64 -> stop_ns:int64 -> unit
(** Record an externally-timed span — for intervals that start on one
    domain and end on another (e.g. queue wait between [submit] and
    task start), which the {!span} combinator cannot express. *)

val tick : string -> unit
(** Count one occurrence of [name] on the calling domain, with no
    duration — e.g. one work item claimed by this domain.  Renders in
    the metrics dump as a per-domain distribution (pool
    utilization). *)

(** {1 Reporting and introspection} *)

val dump_metrics : out_channel -> unit
(** Plain-text summary: counters (sorted by name), span aggregates
    (count / total / mean / max, aggregated over domains), and
    per-domain distributions for ticked names. *)

val counter_value : string -> int
(** Current value of a named counter; 0 if never registered. *)

val counters_snapshot : unit -> (string * int) list
(** All counters with non-zero values, sorted by name. *)

val reset : unit -> unit
(** Zero all counters and span statistics (keeps registered counter
    handles valid).  Testing hook. *)

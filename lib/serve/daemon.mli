(** The spamlab classification daemon — a spamd-shaped long-running
    service speaking {!Protocol} over a unix or TCP socket.

    {2 Data plane}

    A connection's body is executed where it lies, as a slice of the
    connection's read buffer ({!Protocol.recv_frame}), and the response
    is written before the next read reuses the buffer; a CLASSIFY
    allocates nothing on the major heap (DESIGN.md §10).  Every verb
    ingests its body the same way: raw mbox chunks are
    tokenized by offsets straight to distinct interned ids, with
    SpamAssassin's ignored headers suppressed
    ({!Spamlab_spambayes.Ingest}), so the daemon learns exactly the
    tokens it looks up.  Only [TRAIN]/[UNTRAIN] intern; [CLASSIFY]
    drops the tokens no table holds, so read traffic never grows the
    intern table.  Classification reads an {e immutable
    baseline} token DB — the state as of the last publish — fanned
    across the shared domain pool ({!Spamlab_parallel}) over the
    process-global frozen intern snapshot.  [TRAIN]/[UNTRAIN] tokenize
    every chunk of the request before applying any, then apply the id
    sets to a separate {e delta} filter (a copy-on-write
    [Token_db.copy] of the baseline's lineage, so deltas cost
    O(|changes|)), and buffer each op's record for the shared journal
    beside the db ({!Spamlab_spambayes.Filter.journal_op}).  Every
    [publish_every] trained messages — or on an explicit [PUBLISH]; the
    two run one path — a publish persists what changed since the last
    one and then promotes the delta to the new baseline, refreshing the
    intern snapshot.  It commits the tenant store's journals (see
    Tenants) and appends the shared records plus a commit marker to the
    db's journal, fsynced ({!Spamlab_spambayes.Filter.commit_journal});
    a publish with no shared op writes no shared file.  The v3 db is
    rewritten (folded) from the published baseline only when that
    journal outgrows {!Spamlab_spambayes.Journal.compact_ratio} times
    the db's bytes — before the publish appends, so a crash inside the
    fold leaves the previous publish on disk.  Classification therefore
    always sees a consistent published state, and a crash at any point
    restarts from the last publish: {!create} loads the db plus its
    journal's committed prefix.

    {!shutdown} leaves the canonical on-disk form whatever the publish
    cadence was: it compacts every store shard into its segment
    (committing unpublished tenant ops first, as closing the store
    always has) and folds the db from the published baseline over a
    header-only journal.  Unpublished shared training dies with it, as
    it does in a crash, so a client replaying its unpublished buffer
    cannot double-train.

    {2 Tenants}

    With [config.store] set, requests carrying a [User] header are
    routed to that user's per-tenant Bayes state in a
    {!Spamlab_store.Store} (created with the shared filter state as
    its global prior), through the store's id form
    ({!Spamlab_store.Store.train_ids}).  Every [TRAIN]/[UNTRAIN],
    shared or tenant, is all-or-nothing: if any message fails to apply
    (an impossible untrain, an injected fault), those already applied
    are undone with the inverse operation before the [Err] answer, so
    an [Err] always means nothing was applied.  A publish is also
    the store's durability point
    ({!Spamlab_store.Store.commit}, which compacts only the shards
    whose journals outgrew their ratio).  Tenant classify
    reads the user's overlay directly.  Classify looks tokens up
    without interning them ({!Spamlab_spambayes.Intern.lookup}); a
    token the frozen intern snapshot lacks is looked for in the live
    table whenever the table has grown since the snapshot, so a
    token only a tenant's unpublished TRAIN interned is found, and
    that TRAIN scores at once, before the next publish and after it
    alike — unlike the shared path, which classifies against the last
    published baseline.  [User]-routed requests without a configured
    store answer a request-level [Err].

    {2 Overload hardening}

    {!run} multiplexes all admitted connections through one
    [select]-driven event loop, serving at most one request per ready
    connection per round in admission order.  [limits] arms the
    defenses, all off by default:

    - {e read/write deadlines} ([read_timeout_s]/[write_timeout_s]) —
      absolute per-frame budgets; a slow-loris peer trickling bytes is
      answered [ERR] and reaped when its budget expires, while other
      connections keep being served.
    - {e idle reaping} ([idle_timeout_s]) — connections that complete
      no request within the window are closed outright.
    - {e admission control} ([max_conns]) — connections over the cap
      are answered [BUSY] and closed at accept.
    - {e backpressure} ([max_inflight]) — requests over the per-round
      execution quota are answered [BUSY] without executing (the frame
      is read and discarded, so the stream stays framed).
    - {e graceful drain} — once [stop] fires the daemon stops
      accepting, keeps serving already-connected clients that are
      actively sending, closes idle ones, and abandons whatever is
      left at [drain_s].
    - {e degraded mode} ([degraded_after]) — after that many {e
      consecutive} recoverable publish failures, TRAIN/UNTRAIN answer
      [ERR DEGRADED] (refused before touching state, so safely
      retryable) while CLASSIFY keeps serving the last published
      snapshot; one successful publish — e.g. an explicit [PUBLISH] —
      recovers.  [HEALTH] reports
      [state=READY|DEGRADED|DRAINING] plus transition counters.

    Every TRAIN/UNTRAIN and PUBLISH ack carries the recovery beacon
    [boot=] (a per-process id, so a client can tell a daemon restart
    from mere connection loss — reaping and shedding tear connections
    without losing state), and every tenant TRAIN/UNTRAIN ack also
    [user.msgs=] (the tenant's total message count after the request,
    durable exactly as far as the training itself — the anchor for
    the client's exactly-once replay reconciliation).

    {2 Fault sites}

    - ["serve.accept"] — before accepting a ready connection
      (transient: the accept round is retried);
    - ["serve.read"] — before every protocol-read syscall (transient:
      retried by {!Spamlab_io});
    - ["serve.write"] — before every protocol-write syscall (transient:
      retried by {!Spamlab_io});
    - ["serve.deadline"] — when an armed deadline starts a wait
      (transient: reported as the timeout itself);
    - ["serve.publish"] — at the head of a publish, before any
      mutation (crash: the process dies with the baseline on disk
      intact; the delta since the last publish is lost, which is the
      recovery contract clients replay against);

    plus the ["db.save.write"] / ["db.save.rename"] sites inside a
    db fold's write and ["db.journal.fold"] between its rename and
    the journal reset.

    {2 Statistics}

    [STATS] renders the daemon's {!Spamlab_obs.Metrics} registry and
    the tenant store's, if any: a deterministic section, then the rest,
    each in name order.  The first — request, verdict and train
    counters, [publish.seq], [train.pending] and the intern table's size
    ([intern.size]) — is a pure function of the request stream,
    identical at every [--jobs].  The rest describe real time and load:
    per-verb latency histograms (["latency."]), the store's ["store."]
    metrics and the robustness counters (["degraded."], ["drain."],
    ["shed."], ["timeout."]), which render whatever the limits;
    deterministic consumers filter those prefixes. *)

type limits = {
  read_timeout_s : float;
      (** Absolute budget for reading one request frame; 0 = none. *)
  write_timeout_s : float;
      (** Absolute budget for writing one response; 0 = none. *)
  idle_timeout_s : float;
      (** Reap connections completing no request this long; 0 = never. *)
  max_conns : int;  (** Admission cap; 0 = unlimited. *)
  max_inflight : int;
      (** Per-round request execution quota; 0 = unlimited. *)
  drain_s : float;
      (** Grace between [stop] firing and abandoning open conns. *)
  degraded_after : int;
      (** Consecutive publish failures before degraded mode; 0 = never. *)
}

val default_limits : limits
(** Everything off (all zeroes) except [drain_s = 5.0]. *)

type config = {
  addr : addr;
  db_path : string;
      (** Loaded if present (with its journal [db_path ^ ".journal"]);
          written by the first publish that trains it, or at shutdown
          after any publish. *)
  tokenizer : Spamlab_tokenizer.Tokenizer.t;
  options : Spamlab_spambayes.Options.t;
  publish_every : int;
      (** Trained/untrained messages between automatic publishes;
          [0] disables automatic publishing ([PUBLISH] still works). *)
  max_body : int;
  jobs : int;
  store : Spamlab_store.Store.config option;
      (** Tenant store for [User]-routed requests; [None] (default)
          serves the single shared filter only. *)
  limits : limits;
}

and addr = Unix_sock of string | Tcp of string * int

val default_config : ?addr:addr -> db_path:string -> unit -> config
(** spambayes tokenizer, default options, publish every 32,
    {!Protocol.default_max_body}, jobs 1, no tenant store,
    {!default_limits}; [addr] defaults to a unix socket
    ["spamlab.sock"] beside [db_path]. *)

type t

val create : config -> (t, string) result
(** Load (or initialize) the filter state and spawn the worker pool.
    [Error] on an unreadable or corrupt database — a daemon must not
    silently start from scratch over damaged state. *)

val shutdown : t -> unit
(** Leave the canonical on-disk form (see Data plane): compact every
    store shard, fold the db from the published baseline; then join the
    worker pool.  The socket teardown belongs to {!run}. *)

val handle_request : t -> Protocol.request -> Protocol.response
(** Execute one request against the state (no I/O).  Never raises:
    injected transient/fatal faults and semantic failures (impossible
    UNTRAIN, unwritable store) become [Err]; crash faults exit.  The
    same handler {!serve_frame} runs on a body in place, here over the
    whole [body] string. *)

val serve_frame :
  t ->
  Spamlab_io.reader ->
  Unix.file_descr ->
  shed:bool ->
  now:float ->
  [ `Keep | `Close ]
(** One request of a connection, as {!run} serves it: read a frame
    from the reader ({!Protocol.recv_frame}, under the read deadline
    counted from [now], monotonic seconds), execute it on its body in
    place in the reader's buffer, and write the response to the
    descriptor.  With [shed] the frame is read and answered [BUSY]
    unexecuted.  [`Close] when the connection must be dropped (end of
    stream, a framing error or a deadline, answered [ERR] where the
    peer can still read it, or a failed write). *)

val run :
  ?ready:(Unix.sockaddr -> unit) ->
  ?stop:(unit -> bool) ->
  t ->
  (unit, string) result
(** Bind, listen and serve — a select-multiplexed event loop over the
    listener and every admitted connection — until [stop] returns true
    (polled each round, ≤0.2 s latency), then drain per
    [config.limits.drain_s].  [ready] fires once with the bound
    address — for TCP port 0, the actual port.  Stale unix socket
    files are replaced; SIGPIPE is ignored for the process.  [Error]
    on bind/listen failure. *)

module Filter = Spamlab_spambayes.Filter
module Options = Spamlab_spambayes.Options
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Ingest = Spamlab_spambayes.Ingest
module Intern = Spamlab_spambayes.Intern
module Token_db = Spamlab_spambayes.Token_db
module Prob_cache = Spamlab_spambayes.Prob_cache
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Fault = Spamlab_fault
module Obs = Spamlab_obs.Obs
module Clock = Spamlab_obs.Clock
module Pool = Spamlab_parallel.Pool
module Store = Spamlab_store.Store

type limits = {
  read_timeout_s : float;
  write_timeout_s : float;
  idle_timeout_s : float;
  max_conns : int;
  max_inflight : int;
  drain_s : float;
  degraded_after : int;
}

let default_limits =
  {
    read_timeout_s = 0.0;
    write_timeout_s = 0.0;
    idle_timeout_s = 0.0;
    max_conns = 0;
    max_inflight = 0;
    drain_s = 5.0;
    degraded_after = 0;
  }

(* Whether any robustness knob is armed.  Gates the new STATS lines so
   an unarmed daemon's STATS stays byte-identical to earlier releases
   (the standing disabled-path invariant); [drain_s] alone does not
   count — it only matters once a drain is actually underway. *)
let limits_armed l =
  l.read_timeout_s > 0.0 || l.write_timeout_s > 0.0 || l.idle_timeout_s > 0.0
  || l.max_conns > 0 || l.max_inflight > 0 || l.degraded_after > 0

type config = {
  addr : addr;
  db_path : string;
  tokenizer : Tokenizer.t;
  options : Options.t;
  publish_every : int;
  max_body : int;
  jobs : int;
  store : Store.config option;
  limits : limits;
}

and addr = Unix_sock of string | Tcp of string * int

let default_config ?addr ~db_path () =
  let addr =
    match addr with
    | Some a -> a
    | None ->
        Unix_sock (Filename.concat (Filename.dirname db_path) "spamlab.sock")
  in
  {
    addr;
    db_path;
    tokenizer = Tokenizer.spambayes;
    options = Options.default;
    publish_every = 32;
    max_body = Protocol.default_max_body;
    jobs = 1;
    store = None;
    limits = default_limits;
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Per-verb latency: log2-of-microseconds buckets.  Bucket [i] holds
   samples with [2^(i-1) <= us < 2^i] (bucket 0 holds us = 0), so the
   quantile render reports an upper bound, never a fabricated exact
   value. *)
type lat = { mutable count : int; mutable max_us : int; buckets : int array }

let lat () = { count = 0; max_us = 0; buckets = Array.make 63 0 }

let bucket_of_us us =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits us 0

let lat_record l us =
  let us = max 0 us in
  l.count <- l.count + 1;
  if us > l.max_us then l.max_us <- us;
  let b = bucket_of_us us in
  l.buckets.(b) <- l.buckets.(b) + 1

(* Upper bound of the bucket holding the q-quantile sample. *)
let lat_quantile l q =
  if l.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int l.count))) in
    let rec go i seen =
      if i >= Array.length l.buckets then l.max_us
      else
        let seen = seen + l.buckets.(i) in
        if seen >= rank then (if i = 0 then 0 else (1 lsl i) - 1) else go (i + 1) seen
    in
    min (go 0 0) l.max_us
  end

let n_verbs = 7

let verb_index : Protocol.verb -> int = function
  | Ping -> 0
  | Stats -> 1
  | Publish -> 2
  | Classify -> 3
  | Train _ -> 4
  | Untrain _ -> 5
  | Health -> 6

let verb_stat_name =
  [| "ping"; "stats"; "publish"; "classify"; "train"; "untrain"; "health" |]

let health_verb_index = 6

type stats = {
  mutable connections : int;
  mutable protocol_errors : int;
  mutable io_errors : int;
  requests : int array;  (* per verb_index *)
  mutable body_bytes : int;
  mutable classify_msgs : int;
  mutable classify_malformed : int;
  mutable verdict_ham : int;
  mutable verdict_unsure : int;
  mutable verdict_spam : int;
  mutable train_msgs : int;
  mutable train_malformed : int;
  mutable untrain_msgs : int;
  mutable untrain_malformed : int;
  (* Robustness counters (PR 10).  All timing- or load-dependent, so
     their STATS lines render in the nondeterministic tail, and only
     when limits are armed or the counter is nonzero. *)
  mutable shed_conns : int;  (* connections refused with BUSY *)
  mutable shed_requests : int;  (* requests answered BUSY over quota *)
  mutable timeout_read : int;
  mutable timeout_write : int;
  mutable timeout_idle : int;
  mutable degraded_entered : int;
  mutable degraded_recovered : int;
  mutable drain_aborted : int;  (* conns still open at the drain deadline *)
  latencies : lat array;  (* per verb_index *)
}

let make_stats () =
  {
    connections = 0;
    protocol_errors = 0;
    io_errors = 0;
    requests = Array.make n_verbs 0;
    body_bytes = 0;
    classify_msgs = 0;
    classify_malformed = 0;
    verdict_ham = 0;
    verdict_unsure = 0;
    verdict_spam = 0;
    train_msgs = 0;
    train_malformed = 0;
    untrain_msgs = 0;
    untrain_malformed = 0;
    shed_conns = 0;
    shed_requests = 0;
    timeout_read = 0;
    timeout_write = 0;
    timeout_idle = 0;
    degraded_entered = 0;
    degraded_recovered = 0;
    drain_aborted = 0;
    latencies = Array.init n_verbs (fun _ -> lat ());
  }

type t = {
  config : config;
  pool : Pool.t;
  mutable baseline : Token_db.t;  (* published state; classify reads this *)
  (* Shared probability cache over [baseline], rebuilt at each publish
     (the snapshot is immutable between publishes, so one single-
     generation cache refills lazily across the CLASSIFY pool fan-out
     and stays valid until the next publish swaps both out). *)
  mutable baseline_cache : Prob_cache.t;
  delta : Filter.t;  (* live training state, becomes baseline on publish *)
  store : Store.t option;  (* per-tenant state for User-routed requests *)
  mutable pending : int;
  mutable seq : int;
  (* Degraded-mode state machine: consecutive publish failures are a
     streak; at [limits.degraded_after] the daemon stops accepting
     mutations (TRAIN/UNTRAIN answer [ERR DEGRADED]) while CLASSIFY
     keeps serving the last published snapshot.  One successful
     publish recovers.  [draining] is set by {!run} once [stop] fires
     and is only read back by HEALTH. *)
  mutable degraded : bool;
  mutable publish_fault_streak : int;
  mutable draining : bool;
  stats : stats;
}

let publish_seq t = t.seq

(* Obs counters (cheap handles; no-ops while obs is disabled). *)
let c_requests = Obs.counter "serve.requests"
let c_connections = Obs.counter "serve.connections"
let c_protocol_errors = Obs.counter "serve.protocol_errors"
let c_publishes = Obs.counter "serve.publishes"

let obs_span_name = Array.map (fun v -> "serve.request." ^ v) verb_stat_name

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let create config =
  match Spamlab_parallel.validate_jobs config.jobs with
  | Error e -> Error e
  | Ok jobs -> (
      let filter =
        if Sys.file_exists config.db_path then
          Filter.load_file ~options:config.options ~tokenizer:config.tokenizer
            config.db_path
        else
          Ok (Filter.create ~options:config.options ~tokenizer:config.tokenizer ())
      in
      match filter with
      | Error e -> Error e
      | Ok delta -> (
          (* When creating a tenant store, the shared filter state just
             loaded becomes the global prior every tenant starts from;
             reopening an existing store keeps its persisted prior. *)
          let store =
            match config.store with
            | None -> Ok None
            | Some scfg -> (
                match
                  Store.open_store ~options:config.options
                    ~prior:(Token_db.copy (Filter.db delta))
                    scfg
                with
                | Ok st -> Ok (Some st)
                | Error e -> Error e)
          in
          match store with
          | Error e -> Error e
          | Ok store ->
              (* Capture the loaded vocabulary in the frozen intern
                 snapshot so first-request classification probes
                 lock-free.  The shared snapshot cache is created after
                 the freeze so it is sized to the full vocabulary. *)
              Intern.freeze ();
              let baseline = Token_db.copy (Filter.db delta) in
              Ok
                {
                  config;
                  pool = Pool.create ~jobs;
                  baseline;
                  baseline_cache =
                    Prob_cache.create ~shared:true config.options baseline;
                  delta;
                  store;
                  pending = 0;
                  seq = 0;
                  degraded = false;
                  publish_fault_streak = 0;
                  draining = false;
                  stats = make_stats ();
                }))

let shutdown t =
  Option.iter Store.close t.store;
  Pool.shutdown t.pool

(* Degraded-state bookkeeping around every publish attempt.  Success
   resets the failure streak and recovers from degraded mode; failure
   grows the streak and, past the configured budget, enters it. *)
let note_publish_result t ~ok =
  if ok then begin
    t.publish_fault_streak <- 0;
    if t.degraded then begin
      t.degraded <- false;
      t.stats.degraded_recovered <- t.stats.degraded_recovered + 1
    end
  end
  else begin
    t.publish_fault_streak <- t.publish_fault_streak + 1;
    let budget = t.config.limits.degraded_after in
    if (not t.degraded) && budget > 0 && t.publish_fault_streak >= budget
    then begin
      t.degraded <- true;
      t.stats.degraded_entered <- t.stats.degraded_entered + 1
    end
  end

(* Publish: persist the delta via the crash-safe store, then promote it
   to the classification baseline.  The fault site sits at the head —
   a crash here loses only unacknowledged training, and the on-disk
   state is the previous publish (the client replay contract).  With a
   tenant store, a publish is also its durability point: every
   journaled op is committed before the shared filter advances.  The
   intern freeze comes first, so every id the commit, the save and a
   following compaction serialize is rank-covered and their row order
   costs int compares only. *)
let publish t =
  match
    Fault.check "serve.publish";
    Intern.freeze ();
    Option.iter Store.commit t.store;
    Filter.save_file t.delta t.config.db_path
  with
  | exception e ->
      (* Crash faults exited inside the check; anything raised here is
         a recoverable publish failure feeding the degraded budget. *)
      note_publish_result t ~ok:false;
      raise e
  | () ->
      t.baseline <- Token_db.copy (Filter.db t.delta);
      t.seq <- t.seq + 1;
      t.pending <- 0;
      (* Fresh single-generation cache over the new snapshot (sized to
         the intern table, so it covers tokens trained since the last
         publish). *)
      t.baseline_cache <-
        Prob_cache.create ~shared:true t.config.options t.baseline;
      note_publish_result t ~ok:true;
      Obs.incr c_publishes

(* ------------------------------------------------------------------ *)
(* Verb execution                                                      *)

let render_classify t results =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i r ->
      match r with
      | None ->
          t.stats.classify_malformed <- t.stats.classify_malformed + 1;
          Buffer.add_string b (Printf.sprintf "%d malformed\n" i)
      | Some (r : Classify.result) ->
          t.stats.classify_msgs <- t.stats.classify_msgs + 1;
          (match r.verdict with
          | Label.Ham_v -> t.stats.verdict_ham <- t.stats.verdict_ham + 1
          | Label.Unsure_v -> t.stats.verdict_unsure <- t.stats.verdict_unsure + 1
          | Label.Spam_v -> t.stats.verdict_spam <- t.stats.verdict_spam + 1);
          Buffer.add_string b
            (Printf.sprintf "%d %s %.6f\n" i
               (Label.verdict_to_string r.verdict)
               r.indicator))
    results;
  Buffer.contents b

(* The engine is captured in the task closure before the fan-out, so
   workers see it through the pool's own synchronization rather than
   re-reading the mutable [baseline_cache] field mid-flight. *)
let classify_engine t engine body =
  let chunks = Ingest.raw_message_chunks body in
  let results =
    Pool.map_array t.pool
      (fun (off, len) ->
        Ingest.classify_raw_engine engine t.config.tokenizer body ~off ~len)
      chunks
  in
  Protocol.Ok (render_classify t results)

let classify t body =
  classify_engine t (Classify.engine_cached t.baseline_cache) body

(* Tenant classification reads the user's overlay under the shard lock,
   scoring through the store's shared prior cache plus the overlay's
   dirty set.  Ingest resolves a token the frozen intern snapshot lacks
   through the live table, so a token the tenant trained since the last
   publish maps to the id its overlay counts: the tenant's own
   unpublished training scores at once, before and after the next
   publish alike. *)
let tenant_classify t st user body =
  Store.with_user_engine st user (fun engine -> classify_engine t engine body)

(* Shared tail of every TRAIN/UNTRAIN: pending drives the auto-publish
   cadence (tenant ops included — a publish is the store's durability
   point), and the ack always reports post-publish pending/seq.

   A {e recoverable} auto-publish failure must not turn a training that
   did apply into an [Err] — the client would replay it and double-
   train.  Instead the ack stays [Ok] with [pending] still nonzero (so
   the client keeps the batch buffered for replay against the
   still-unpublished state) plus a [publish_error=1] marker; the
   failure itself feeds the degraded budget inside [publish].  On the
   disabled path publishes never fail, so ack bytes are unchanged. *)
(* Restart beacon: with any limit armed, mutation acks also carry the
   daemon's process id.  A client that slept through a crash-and-restart
   sees no transport error, and before the first publish a seq of 0
   gives no regression signal either — the boot id changing is the only
   reliable cue that buffered training was lost and must be replayed.
   Unarmed daemons keep the historical ack bytes. *)
let boot_field t =
  if limits_armed t.config.limits then
    Printf.sprintf " boot=%d" (Unix.getpid ())
  else ""

(* [user_msgs]: tenant acks (limits armed) also carry the tenant's
   total message count after the apply.  The count is durable with the
   overlay itself, so a restarted daemon reports exactly how much of a
   tenant's history survived — the client's replay reconciles against
   it instead of re-training batches that some publish (possibly
   another client's, whose ack it never saw) already made durable. *)
let train_ack t ~key ?user_msgs n dropped =
  t.pending <- t.pending + n;
  let publish_failed =
    if t.config.publish_every > 0 && t.pending >= t.config.publish_every then
      match publish t with
      | () -> false
      | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) -> true
    else false
  in
  Protocol.Ok
    (Printf.sprintf "%s=%d malformed=%d pending=%d seq=%d%s%s%s\n" key n dropped
       t.pending t.seq (boot_field t)
       (match user_msgs with
       | Some m when limits_armed t.config.limits ->
           Printf.sprintf " user.msgs=%d" m
       | _ -> "")
       (if publish_failed then " publish_error=1" else ""))

(* TRAIN/UNTRAIN bodies come in exactly as CLASSIFY's do: raw mbox
   chunks to distinct ids, ignored headers suppressed, so the daemon
   learns the very tokens it looks up.  Every chunk is tokenized before
   any is applied, so a failure while tokenizing (an injected
   [intern.grow] fault) answers ERR with nothing trained.  Malformed
   chunks are skipped and counted. *)
let ingest_ids t body =
  let dropped = ref 0 in
  let msgs =
    List.filter_map
      (fun (off, len) ->
        match Ingest.unique_ids_raw t.config.tokenizer body ~off ~len with
        | Some (ids, _raw) -> Some ids
        | None ->
            incr dropped;
            None)
      (Array.to_list (Ingest.raw_message_chunks body))
  in
  (msgs, !dropped)

let train t cls body =
  let msgs, dropped = ingest_ids t body in
  List.iter (Filter.train_ids t.delta cls) msgs;
  let n = List.length msgs in
  t.stats.train_msgs <- t.stats.train_msgs + n;
  t.stats.train_malformed <- t.stats.train_malformed + dropped;
  train_ack t ~key:"trained" n dropped

let untrain t cls body =
  let msgs, dropped = ingest_ids t body in
  (* Token_db.untrain validates before mutating, so each message is
     all-or-nothing; an impossible untrain aborts the rest of the
     batch with the already-valid prefix applied. *)
  List.iter (Filter.untrain_ids t.delta cls) msgs;
  let n = List.length msgs in
  t.stats.untrain_msgs <- t.stats.untrain_msgs + n;
  t.stats.untrain_malformed <- t.stats.untrain_malformed + dropped;
  train_ack t ~key:"untrained" n dropped

(* The [user.msgs=] reconciliation count for tenant acks.  Computed
   only when limits are armed: the extra overlay read would otherwise
   perturb the unarmed daemon's store.* STATS counters, which the
   disabled-path byte-compatibility contract pins. *)
let tenant_msgs t st user =
  if limits_armed t.config.limits then
    Some
      (Store.with_user st user (fun db ->
           Token_db.nspam db + Token_db.nham db))
  else None

(* Tenant training journals per-message ops against the user's overlay.
   A fault partway through the batch (e.g. an injected journal-append
   failure) would otherwise leave a silently-applied prefix behind an
   [Err] ack — the client could neither drop nor retry the request
   safely — so the applied prefix is rolled back (untrain is the exact
   inverse of train) and the whole request is all-or-nothing. *)
let tenant_train t st user cls body =
  let msgs, dropped = ingest_ids t body in
  let applied = ref [] in
  (match
     List.iter
       (fun ids ->
         Store.train_ids st ~user cls ids;
         applied := ids :: !applied)
       msgs
   with
  | () -> ()
  | exception e ->
      (* The undo ops traverse the same fault sites; retry transients
         hard — an abandoned undo would leave the partial prefix the
         rollback exists to prevent. *)
      let rec undo tries ids =
        try Store.untrain_ids st ~user cls ids
        with exn when Fault.is_transient exn && tries < 8 ->
          undo (tries + 1) ids
      in
      List.iter (undo 0) !applied;
      raise e);
  let n = List.length msgs in
  t.stats.train_msgs <- t.stats.train_msgs + n;
  t.stats.train_malformed <- t.stats.train_malformed + dropped;
  let user_msgs = tenant_msgs t st user in
  train_ack t ~key:"trained" ?user_msgs n dropped

let tenant_untrain t st user cls body =
  let msgs, dropped = ingest_ids t body in
  (* Store.untrain_ids validates before journaling, so each message is
     all-or-nothing on disk as well as in memory. *)
  List.iter (Store.untrain_ids st ~user cls) msgs;
  let n = List.length msgs in
  t.stats.untrain_msgs <- t.stats.untrain_msgs + n;
  t.stats.untrain_malformed <- t.stats.untrain_malformed + dropped;
  let user_msgs = tenant_msgs t st user in
  train_ack t ~key:"untrained" ?user_msgs n dropped

let stats_payload t =
  let s = t.stats in
  let b = Buffer.create 512 in
  let line name v = Buffer.add_string b (Printf.sprintf "%s %d\n" name v) in
  (* Deterministic counters, sorted by name. *)
  line "body.bytes" s.body_bytes;
  line "classify.malformed" s.classify_malformed;
  line "classify.messages" s.classify_msgs;
  line "connections" s.connections;
  line "io.errors" s.io_errors;
  line "protocol.errors" s.protocol_errors;
  line "publish.seq" t.seq;
  let sorted_verbs =
    (* verb indices in lexicographic order of their stat names *)
    [| 3; 6; 0; 2; 1; 4; 5 |]
  in
  (* [requests.health] only renders once HEALTH has been used (or any
     robustness knob is armed): a daemon run with none of the new
     machinery keeps the exact STATS bytes of earlier releases. *)
  let armed = limits_armed t.config.limits in
  Array.iter
    (fun i ->
      if i <> health_verb_index || armed || s.requests.(i) > 0 then
        line ("requests." ^ verb_stat_name.(i)) s.requests.(i))
    sorted_verbs;
  line "train.malformed" s.train_malformed;
  line "train.messages" s.train_msgs;
  line "train.pending" t.pending;
  line "untrain.malformed" s.untrain_malformed;
  line "untrain.messages" s.untrain_msgs;
  line "verdicts.ham" s.verdict_ham;
  line "verdicts.spam" s.verdict_spam;
  line "verdicts.unsure" s.verdict_unsure;
  (* Wall-clock lines: real time, not jobs-invariant; the "latency."
     prefix is the filtering contract for deterministic consumers. *)
  Array.iter
    (fun i ->
      let l = s.latencies.(i) in
      if l.count > 0 then
        Buffer.add_string b
          (Printf.sprintf "latency.%s count=%d p50us<=%d p99us<=%d maxus=%d\n"
             verb_stat_name.(i) l.count (lat_quantile l 0.50)
             (lat_quantile l 0.99) l.max_us))
    sorted_verbs;
  (* Tenant-store cache/journal metrics: like "latency.", these live
     after the deterministic block — cache hit/miss/eviction splits
     depend on runtime interleavings, so deterministic consumers filter
     the "store." prefix too. *)
  (match t.store with
  | None -> ()
  | Some st ->
      let ss = Store.stats st in
      line "store.cached" ss.Store.cached;
      line "store.compactions" ss.Store.compactions;
      line "store.evictions" ss.Store.evictions;
      line "store.journal_bytes" ss.Store.journal_bytes;
      line "store.journal_ops" ss.Store.journal_ops;
      line "store.overlay_hits" ss.Store.hits;
      line "store.overlay_misses" ss.Store.misses);
  (* Robustness counters: load- and timing-dependent (how many BUSYs a
     client sees depends on scheduling), so they live with the other
     nondeterministic tails and only when armed or nonzero — filter
     the "shed."/"timeout."/"degraded."/"drain." prefixes along with
     "latency."/"store." for deterministic consumption. *)
  if
    limits_armed t.config.limits
    || s.shed_conns > 0 || s.shed_requests > 0 || s.timeout_read > 0
    || s.timeout_write > 0 || s.timeout_idle > 0 || s.degraded_entered > 0
    || s.drain_aborted > 0
  then begin
    line "degraded.entered" s.degraded_entered;
    line "degraded.recovered" s.degraded_recovered;
    line "drain.aborted" s.drain_aborted;
    line "shed.connections" s.shed_conns;
    line "shed.requests" s.shed_requests;
    line "timeout.idle" s.timeout_idle;
    line "timeout.read" s.timeout_read;
    line "timeout.write" s.timeout_write
  end;
  Buffer.contents b

let health_payload t =
  let state =
    if t.draining then "DRAINING"
    else if t.degraded then "DEGRADED"
    else "READY"
  in
  Printf.sprintf
    "state=%s seq=%d degraded.entered=%d degraded.recovered=%d \
     publish.fault.streak=%d\n"
    state t.seq t.stats.degraded_entered t.stats.degraded_recovered
    t.publish_fault_streak

let exec t (req : Protocol.request) =
  (* User-routed requests address per-tenant state; without a store
     that routing cannot be honoured and silently training the shared
     filter instead would be wrong, so it is a request-level error. *)
  let tenant f g =
    match (req.user, t.store) with
    | None, _ -> f ()
    | Some user, Some st -> g user st
    | Some _, None ->
        Protocol.Err "User routing requires a tenant store (serve --store-dir)"
  in
  match req.verb with
  | Protocol.Ping -> Protocol.Ok "pong\n"
  | Protocol.Stats -> Protocol.Ok (stats_payload t)
  | Protocol.Health -> Protocol.Ok (health_payload t)
  | Protocol.Publish ->
      publish t;
      (* An explicit PUBLISH also folds every journal into its segment
         — the canonical on-disk form the crash gate byte-compares. *)
      Option.iter Store.compact_all t.store;
      Protocol.Ok (Printf.sprintf "published seq=%d%s\n" t.seq (boot_field t))
  | Protocol.Classify ->
      tenant
        (fun () -> classify t req.body)
        (fun user st -> tenant_classify t st user req.body)
  | Protocol.Train _ | Protocol.Untrain _ when t.degraded ->
      (* Refused before any state is touched, so a degraded-mode TRAIN
         is safely retryable once a publish recovers.  The "DEGRADED"
         prefix is the client's retry cue. *)
      Protocol.Err
        "DEGRADED: mutations suspended after repeated publish failures; \
         classify still serves the last published snapshot (PUBLISH to \
         recover)"
  | Protocol.Train cls ->
      tenant
        (fun () -> train t cls req.body)
        (fun user st -> tenant_train t st user cls req.body)
  | Protocol.Untrain cls ->
      tenant
        (fun () -> untrain t cls req.body)
        (fun user st -> tenant_untrain t st user cls req.body)

let handle_request t (req : Protocol.request) =
  let vi = verb_index req.verb in
  t.stats.requests.(vi) <- t.stats.requests.(vi) + 1;
  t.stats.body_bytes <- t.stats.body_bytes + String.length req.body;
  Obs.incr c_requests;
  let start_ns = Clock.now_ns () in
  let resp =
    try exec t req with
    (* Crash faults exit inside [Fault.check]; anything raised is a
       degradable failure answered on this connection. *)
    | Fault.Injected _ as e -> Protocol.Err (Printexc.to_string e)
    | Spamlab_parallel.Task_failed { site; attempts } ->
        Protocol.Err
          (Printf.sprintf "task failed at %s after %d attempts" site attempts)
    | Sys_error e -> Protocol.Err e
    | Invalid_argument e -> Protocol.Err e
    | Unix.Unix_error (e, fn, _) ->
        Protocol.Err (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  let stop_ns = Clock.now_ns () in
  lat_record t.stats.latencies.(vi)
    (Int64.to_int (Int64.div (Int64.sub stop_ns start_ns) 1000L));
  if Obs.enabled () then Obs.record_span obs_span_name.(vi) ~start_ns ~stop_ns;
  resp

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)

let send_response ?deadline fd resp =
  let s = Protocol.render_response resp in
  Spamlab_io.really_write_string ~site:"serve.write" ?deadline fd s 0
    (String.length s)

let send_best_effort ?deadline fd resp =
  try send_response ?deadline fd resp with _ -> ()

let serve_connection t fd =
  let reader = Spamlab_io.reader ~site:"serve.read" fd in
  let rec loop () =
    match Protocol.recv_request ~max_body:t.config.max_body reader with
    | `Eof -> ()
    | `Error e ->
        (* Framing is gone; answer once and drop the connection. *)
        t.stats.protocol_errors <- t.stats.protocol_errors + 1;
        Obs.incr c_protocol_errors;
        send_best_effort fd (Protocol.Err e)
    | `Request req -> (
        let resp = handle_request t req in
        match send_response fd resp with
        | () -> loop ()
        | exception (Unix.Unix_error _ | Sys_error _) ->
            t.stats.io_errors <- t.stats.io_errors + 1)
  in
  try loop () with
  | End_of_file | Unix.Unix_error _ | Sys_error _ ->
      t.stats.io_errors <- t.stats.io_errors + 1
  | Fault.Injected _ as e ->
      (* A fatal injected read fault (transients were already retried
         by Spamlab_io): degrade to one ERR, drop the connection. *)
      t.stats.io_errors <- t.stats.io_errors + 1;
      send_best_effort fd (Protocol.Err (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)

let bind_listen = function
  | Unix_sock path -> (
      try
        (match Unix.lstat path with
        | { st_kind = S_SOCK; _ } -> Unix.unlink path
        | _ -> failwith (path ^ ": exists and is not a socket")
        | exception Unix.Unix_error (ENOENT, _, _) -> ());
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.bind fd (ADDR_UNIX path);
        Unix.listen fd 64;
        Ok (fd, fun () -> try Unix.unlink path with _ -> ())
      with
      | Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
      | Failure m -> Error m)
  | Tcp (host, port) -> (
      try
        let ip = Unix.inet_addr_of_string host in
        let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
        Unix.setsockopt fd SO_REUSEADDR true;
        Unix.bind fd (ADDR_INET (ip, port));
        Unix.listen fd 64;
        Ok (fd, fun () -> ())
      with
      | Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e))
      | Failure _ -> Error (Printf.sprintf "bad listen address %S" host))

(* ------------------------------------------------------------------ *)
(* Multiplexed event loop                                              *)

(* One admitted connection.  The reader persists across rounds so a
   request frame may arrive in arbitrarily many pieces; [last_active]
   drives idle reaping. *)
type conn = {
  c_fd : Unix.file_descr;
  c_reader : Spamlab_io.reader;
  mutable last_active : float;  (* monotonic seconds *)
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let opt_deadline ~now timeout_s =
  if timeout_s > 0.0 then Some (now +. timeout_s) else None

(* Serve exactly one request from [c].  [shed] answers BUSY without
   executing (the frame is still read and discarded — the stream stays
   framed).  Returns [`Keep] to keep the connection, [`Close] to drop
   it.  The read deadline is absolute across the whole frame, so a
   peer trickling bytes cannot renew its budget; it is disarmed before
   the (possibly slow) execution so only wire time counts. *)
let serve_one t c ~shed ~now =
  let lim = t.config.limits in
  Spamlab_io.set_deadline c.c_reader (opt_deadline ~now lim.read_timeout_s);
  let outcome =
    match Protocol.recv_request ~max_body:t.config.max_body c.c_reader with
    | `Eof -> `Close
    | `Error e ->
        t.stats.protocol_errors <- t.stats.protocol_errors + 1;
        Obs.incr c_protocol_errors;
        send_best_effort
          ?deadline:(opt_deadline ~now lim.write_timeout_s)
          c.c_fd (Protocol.Err e);
        `Close
    | `Request req -> (
        Spamlab_io.set_deadline c.c_reader None;
        let resp =
          if shed then begin
            t.stats.shed_requests <- t.stats.shed_requests + 1;
            Protocol.Busy
          end
          else handle_request t req
        in
        let write_deadline =
          opt_deadline ~now:(Spamlab_io.monotonic_s ()) lim.write_timeout_s
        in
        match send_response ?deadline:write_deadline c.c_fd resp with
        | () ->
            c.last_active <- Spamlab_io.monotonic_s ();
            `Keep
        | exception Spamlab_io.Timeout _ ->
            t.stats.timeout_write <- t.stats.timeout_write + 1;
            `Close
        | exception (Unix.Unix_error _ | Sys_error _ | Fault.Injected _) ->
            (* Includes a fatal injected write fault — the response is
               torn, so the connection is all that can be given up. *)
            t.stats.io_errors <- t.stats.io_errors + 1;
            `Close)
    | exception Spamlab_io.Timeout _ ->
        t.stats.timeout_read <- t.stats.timeout_read + 1;
        send_best_effort
          ?deadline:(opt_deadline ~now:(Spamlab_io.monotonic_s ()) 1.0)
          c.c_fd
          (Protocol.Err "read deadline exceeded");
        `Close
    | exception (End_of_file | Unix.Unix_error _ | Sys_error _) ->
        t.stats.io_errors <- t.stats.io_errors + 1;
        `Close
    | exception Fault.Injected _ ->
        (* A fatal injected read fault (transients were retried by
           Spamlab_io): degrade to one ERR, drop the connection. *)
        t.stats.io_errors <- t.stats.io_errors + 1;
        send_best_effort c.c_fd (Protocol.Err "injected read fault");
        `Close
  in
  Spamlab_io.set_deadline c.c_reader None;
  outcome

(* Admission: accept whatever is ready; over [max_conns] the newcomer
   is told BUSY and closed — deterministic shedding, not a silent RST
   from a full backlog. *)
let accept_admit t lfd conns ~now =
  match Fault.check "serve.accept" with
  | exception e when Fault.is_transient e ->
      (* The connection stays queued in the listen backlog; the next
         select round retries the accept. *)
      conns
  | () -> (
      match Unix.accept ~cloexec:true lfd with
      | exception
          Unix.Unix_error ((EINTR | ECONNABORTED | EAGAIN | EWOULDBLOCK), _, _)
        ->
          conns
      | fd, _ ->
          let lim = t.config.limits in
          if lim.max_conns > 0 && List.length conns >= lim.max_conns then begin
            t.stats.shed_conns <- t.stats.shed_conns + 1;
            send_best_effort ?deadline:(opt_deadline ~now 1.0) fd Protocol.Busy;
            close_fd fd;
            conns
          end
          else begin
            t.stats.connections <- t.stats.connections + 1;
            Obs.incr c_connections;
            conns
            @ [
                {
                  c_fd = fd;
                  c_reader = Spamlab_io.reader ~site:"serve.read" fd;
                  last_active = now;
                };
              ]
          end)

let run ?(ready = fun _ -> ()) ?(stop = fun () -> false) t =
  (* A peer closing mid-response must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match bind_listen t.config.addr with
  | Error e -> Error e
  | Ok (lfd, cleanup) ->
      let lim = t.config.limits in
      let conns = ref [] in
      let drain_deadline = ref infinity in
      let finish () =
        List.iter (fun c -> close_fd c.c_fd) !conns;
        conns := [];
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        cleanup ()
      in
      ready (Unix.getsockname lfd);
      (* Each round: select over the listener (unless draining) and
         every admitted connection, then serve at most one request per
         ready connection in admission order — [max_inflight] caps how
         many execute per round, the rest answer BUSY.  Connections
         with bytes still buffered count as ready without selecting
         (pipelined frames never block on the descriptor again). *)
      let rec loop () =
        let now = Spamlab_io.monotonic_s () in
        if !drain_deadline = infinity && stop () then begin
          t.draining <- true;
          drain_deadline :=
            if lim.drain_s > 0.0 then now +. lim.drain_s else now
        end;
        let draining = t.draining in
        if draining && (!conns = [] || now >= !drain_deadline) then begin
          (* Drain deadline: whatever is still open is abandoned. *)
          t.stats.drain_aborted <- t.stats.drain_aborted + List.length !conns
        end
        else begin
          let listen_fds = if draining then [] else [ lfd ] in
          let conn_fds = List.map (fun c -> c.c_fd) !conns in
          let have_buffered =
            List.exists (fun c -> Spamlab_io.buffered c.c_reader > 0) !conns
          in
          let tick =
            if have_buffered then 0.0
            else if draining then min 0.2 (max 0.0 (!drain_deadline -. now))
            else 0.2
          in
          match Unix.select (listen_fds @ conn_fds) [] [] tick with
          | exception Unix.Unix_error (EINTR, _, _) -> loop ()
          | readable, _, _ ->
              let now = Spamlab_io.monotonic_s () in
              if (not draining) && List.mem lfd readable then
                conns := accept_admit t lfd !conns ~now;
              let quota =
                if lim.max_inflight > 0 then lim.max_inflight else max_int
              in
              let executed = ref 0 in
              conns :=
                List.filter
                  (fun c ->
                    let ready_now =
                      List.mem c.c_fd readable
                      || Spamlab_io.buffered c.c_reader > 0
                    in
                    if not ready_now then
                      if draining then begin
                        (* Between requests with nothing in flight:
                           nothing to finish, so a drain closes it at
                           once rather than waiting out the deadline. *)
                        close_fd c.c_fd;
                        false
                      end
                      else true
                    else begin
                      let shed = !executed >= quota in
                      if not shed then incr executed;
                      match serve_one t c ~shed ~now with
                      | `Keep -> true
                      | `Close ->
                          close_fd c.c_fd;
                          false
                    end)
                  !conns;
              (* Idle reaping: connections that have not completed a
                 request recently (including never-started ones) are
                 dropped without ceremony, spamd-style. *)
              if lim.idle_timeout_s > 0.0 then begin
                let cutoff = Spamlab_io.monotonic_s () -. lim.idle_timeout_s in
                conns :=
                  List.filter
                    (fun c ->
                      if c.last_active < cutoff then begin
                        t.stats.timeout_idle <- t.stats.timeout_idle + 1;
                        close_fd c.c_fd;
                        false
                      end
                      else true)
                    !conns
              end;
              loop ()
        end
      in
      (match loop () with
      | () -> ()
      | exception e ->
          finish ();
          raise e);
      finish ();
      Ok ()

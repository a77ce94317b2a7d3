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
module Mbox = Spamlab_email.Mbox
module Obs = Spamlab_obs.Obs
module Metrics = Spamlab_obs.Metrics
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

let verdict_metric = function
  | Label.Ham_v -> "verdicts.ham"
  | Label.Unsure_v -> "verdicts.unsure"
  | Label.Spam_v -> "verdicts.spam"

(* The daemon's registry, every counter registered at 0 so that STATS
   renders it before its first count.  The robustness counters, like the
   latency histograms, follow timing and load, not the request stream. *)
let create_metrics () =
  let m = Metrics.create () in
  List.iter
    (fun name -> ignore (Metrics.counter m name))
    ([
       "body.bytes"; "classify.malformed"; "classify.messages"; "connections";
       "io.errors"; "protocol.errors"; "train.malformed"; "train.messages";
       "untrain.malformed"; "untrain.messages"; "verdicts.ham"; "verdicts.spam";
       "verdicts.unsure";
     ]
    @ List.map (( ^ ) "requests.")
        [ "classify"; "health"; "ping"; "publish"; "stats"; "train"; "untrain" ]);
  List.iter
    (fun name -> ignore (Metrics.counter m ~deterministic:false name))
    [
      "degraded.entered"; "degraded.recovered"; "drain.aborted";
      "shed.connections"; "shed.requests"; "timeout.idle"; "timeout.read";
      "timeout.write";
    ];
  Metrics.gauge m "intern.size" Intern.size;
  m

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
  journal : Filter.journal;  (* the shared ops since the db was folded *)
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
  (* Process id, stamped on every mutation and PUBLISH ack: a client
     that slept through a crash-and-restart sees no transport error, so
     a changed boot is its cue that buffered training was lost and must
     be replayed. *)
  boot : int;
  metrics : Metrics.t;
}

let count t name n = Metrics.add (Metrics.counter t.metrics name) n

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let create config =
  match Spamlab_parallel.validate_jobs config.jobs with
  | Error e -> Error e
  | Ok jobs -> (
      match
        Filter.open_journal ~options:config.options ~tokenizer:config.tokenizer
          config.db_path
      with
      | Error e -> Error e
      | Ok (delta, journal) -> (
          (* When creating a tenant store, the shared filter state just
             loaded becomes the global prior every tenant starts from,
             and the store writes it out; reopening an existing store
             keeps its persisted prior.  The freeze comes first so that
             write orders its rows by int rank, whatever order the
             db's table yields them in. *)
          Intern.freeze ();
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
              (* Capture what the store loaded in the frozen intern
                 snapshot too, so first-request classification probes
                 lock-free.  The shared snapshot cache is created after
                 the freeze so it is sized to the full vocabulary. *)
              Intern.freeze ();
              let baseline = Token_db.copy (Filter.db delta) in
              let t =
                {
                  config;
                  pool = Pool.create ~jobs;
                  baseline;
                  baseline_cache =
                    Prob_cache.create ~shared:true config.options baseline;
                  delta;
                  journal;
                  store;
                  pending = 0;
                  seq = 0;
                  degraded = false;
                  publish_fault_streak = 0;
                  draining = false;
                  boot = Unix.getpid ();
                  metrics = create_metrics ();
                }
              in
              Metrics.gauge t.metrics "publish.seq" (fun () -> t.seq);
              Metrics.gauge t.metrics "train.pending" (fun () -> t.pending);
              Ok t))

(* Clean shutdown leaves the canonical on-disk form, whatever the
   publish cadence was: every shard folded into its segment (tenant ops
   not yet published are committed first, as [Store.close] always
   has), and the db rewritten from the published baseline over a
   header-only journal (shared ops not yet published die, so a client
   replaying its unpublished buffer cannot double-train). *)
let shutdown t =
  Fun.protect
    ~finally:(fun () -> Pool.shutdown t.pool)
    (fun () ->
      Option.iter
        (fun st ->
          Store.compact_all st;
          Store.close st)
        t.store;
      Filter.close_journal t.journal ~published:t.baseline)

(* Degraded-state bookkeeping around every publish attempt.  Success
   resets the failure streak and recovers from degraded mode; failure
   grows the streak and, past the configured budget, enters it. *)
let note_publish_result t ~ok =
  if ok then begin
    t.publish_fault_streak <- 0;
    if t.degraded then begin
      t.degraded <- false;
      count t "degraded.recovered" 1
    end
  end
  else begin
    t.publish_fault_streak <- t.publish_fault_streak + 1;
    let budget = t.config.limits.degraded_after in
    if (not t.degraded) && budget > 0 && t.publish_fault_streak >= budget
    then begin
      t.degraded <- true;
      count t "degraded.entered" 1
    end
  end

(* Publish — explicit or automatic, one path: commit what changed since
   the last publish, then promote the delta to the classification
   baseline.  The tenant store commits its journaled ops (compacting
   only the shards past their ratio); the shared journal appends the
   shared ops, folding the db from the current baseline first when the
   journal has outgrown it.  The fault site sits at the head — a crash
   here loses only unacknowledged training, and the on-disk state is
   the previous publish (the client replay contract).  The intern
   freeze comes first, so every id the commits and a fold serialize is
   rank-covered and their row order costs int compares only. *)
let publish t =
  match
    Fault.check "serve.publish";
    Intern.freeze ();
    Option.iter Store.commit t.store;
    Filter.commit_journal t.journal ~published:t.baseline
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
      note_publish_result t ~ok:true

(* ------------------------------------------------------------------ *)
(* Verb execution                                                      *)

(* One short string per verdict line, joined at their exact total
   size: a growing buffer would reach a block past the minor heap's
   size limit at about 64 lines and be allocated on the major heap. *)
let render_classify t results =
  String.concat ""
    (Array.to_list
       (Array.mapi
          (fun i r ->
            match r with
            | None ->
                count t "classify.malformed" 1;
                Printf.sprintf "%d malformed\n" i
            | Some (r : Classify.result) ->
                count t "classify.messages" 1;
                count t (verdict_metric r.verdict) 1;
                Printf.sprintf "%d %s %.6f\n" i
                  (Label.verdict_to_string r.verdict)
                  r.indicator)
          results))

(* The state a CLASSIFY/TRAIN/UNTRAIN addresses: the shared delta
   filter, whose CLASSIFY reads the published snapshot, or one tenant
   of the store. *)
type target = Shared | Tenant of Store.t * string

(* User-routed requests address per-tenant state; without a store that
   routing cannot be honoured, and silently serving the shared filter
   instead would be wrong, so it is a request-level error. *)
let target_of t user =
  match (user, t.store) with
  | None, _ -> Ok Shared
  | Some user, Some st -> Ok (Tenant (st, user))
  | Some _, None ->
      Error "User routing requires a tenant store (serve --store-dir)"

(* Shared classification scores the published snapshot through its
   cache.  Tenant classification reads the user's overlay under the
   shard lock, through the store's shared prior cache plus the
   overlay's dirty set; ingest looks up a token the frozen intern
   snapshot lacks in the live table once the table has grown since the
   snapshot, so a token the tenant trained since the last publish maps
   to the id its overlay counts and the tenant's own unpublished
   training scores at once.  The engine is
   captured in the task closure before the fan-out, so workers see it
   through the pool's own synchronization rather than re-reading the
   mutable [baseline_cache] field mid-flight.  The body is a slice of
   the connection's buffer: chunks are offsets into it, and nothing
   kept outlives the request (scoring keeps no token). *)
let classify t target ({ buf; off; len } : Spamlab_io.slice) =
  let chunks = Mbox.chunks ~off ~len buf in
  let score engine =
    Pool.map_array t.pool
      (fun (off, len) ->
        Ingest.classify_raw_engine engine t.config.tokenizer buf ~off ~len)
      chunks
  in
  let results =
    match target with
    | Shared -> score (Classify.engine_cached t.baseline_cache)
    | Tenant (st, user) -> Store.with_user_engine st user score
  in
  Protocol.Ok (render_classify t results)

(* Shared tail of every TRAIN/UNTRAIN: pending drives the auto-publish
   cadence (tenant ops included — a publish is the store's durability
   point), and the ack always reports post-publish pending/seq.

   A {e recoverable} auto-publish failure must not turn a training that
   did apply into an [Err] — the client would replay it and double-
   train.  Instead the ack stays [Ok] with [pending] still nonzero (so
   the client keeps the batch buffered for replay against the
   still-unpublished state) plus a [publish_error=1] marker; the
   failure itself feeds the degraded budget inside [publish].

   Tenant acks also carry [user.msgs=], the tenant's total message
   count after the apply.  The count is durable with the overlay itself,
   so a restarted daemon reports exactly how much of a tenant's history
   survived — the client's replay reconciles against it instead of
   re-training batches that some publish (possibly another client's,
   whose ack it never saw) already made durable. *)
let train_ack t target ~key n dropped =
  let user_msgs =
    match target with
    | Shared -> ""
    | Tenant (st, user) ->
        Printf.sprintf " user.msgs=%d"
          (Store.with_user st user (fun db ->
               Token_db.nspam db + Token_db.nham db))
  in
  t.pending <- t.pending + n;
  let publish_failed =
    if t.config.publish_every > 0 && t.pending >= t.config.publish_every then
      match publish t with
      | () -> false
      | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) -> true
    else false
  in
  Protocol.Ok
    (Printf.sprintf "%s=%d malformed=%d pending=%d seq=%d boot=%d%s%s\n" key n
       dropped t.pending t.seq t.boot user_msgs
       (if publish_failed then " publish_error=1" else ""))

let apply t target kind cls ids =
  match (target, kind) with
  | Shared, `Train ->
      Token_db.train_ids (Filter.db t.delta) cls ids;
      Filter.journal_op t.journal `Train cls ids
  | Shared, `Untrain ->
      Token_db.untrain_ids (Filter.db t.delta) cls ids;
      Filter.journal_op t.journal `Untrain cls ids
  | Tenant (st, user), `Train -> Store.train_ids st ~user cls ids
  | Tenant (st, user), `Untrain -> Store.untrain_ids st ~user cls ids

(* TRAIN/UNTRAIN bodies come in exactly as CLASSIFY's do: raw mbox
   chunks to distinct ids, ignored headers suppressed, so the daemon
   learns the very tokens it looks up.  Every chunk is tokenized before
   any is applied, so a failure while tokenizing (an injected
   [intern.grow] fault) answers ERR with nothing applied.  Malformed
   chunks are skipped and counted.

   The request is all-or-nothing on either target.  A message that
   fails to apply (an impossible untrain, an injected journal-append
   fault) would otherwise leave a silently-applied prefix behind an
   [Err] ack, which the client could neither drop nor retry safely; so
   the applied prefix is undone with the inverse kind (train and
   untrain are exact inverses) before the error propagates.  The body
   is a slice of the connection's buffer; interning copies every token
   the db and the journal keep. *)
let mutate t target kind cls ({ buf; off; len } : Spamlab_io.slice) =
  let dropped = ref 0 in
  let msgs =
    List.filter_map
      (fun (off, len) ->
        match Ingest.unique_ids_raw t.config.tokenizer buf ~off ~len with
        | Some (ids, _raw) -> Some ids
        | None ->
            incr dropped;
            None)
      (Array.to_list (Mbox.chunks ~off ~len buf))
  in
  let applied = ref [] in
  (match
     List.iter
       (fun ids ->
         apply t target kind cls ids;
         applied := ids :: !applied)
       msgs
   with
  | () -> ()
  | exception e ->
      (* The undo ops traverse the same fault sites; retry transients
         hard — an abandoned undo would leave the partial prefix the
         rollback exists to prevent. *)
      let inverse = match kind with `Train -> `Untrain | `Untrain -> `Train in
      let rec undo tries ids =
        try apply t target inverse cls ids
        with exn when Fault.is_transient exn && tries < 8 ->
          undo (tries + 1) ids
      in
      List.iter (undo 0) !applied;
      raise e);
  let n = List.length msgs in
  let verb, key =
    match kind with `Train -> ("train", "trained") | `Untrain -> ("untrain", "untrained")
  in
  count t (verb ^ ".messages") n;
  count t (verb ^ ".malformed") !dropped;
  train_ack t target ~key n !dropped

let stats_payload t =
  Metrics.render (t.metrics :: Option.to_list (Option.map Store.metrics t.store))

let health_payload t =
  let state =
    if t.draining then "DRAINING"
    else if t.degraded then "DEGRADED"
    else "READY"
  in
  Printf.sprintf
    "state=%s seq=%d degraded.entered=%d degraded.recovered=%d \
     publish.fault.streak=%d\n"
    state t.seq
    (Metrics.value t.metrics "degraded.entered")
    (Metrics.value t.metrics "degraded.recovered")
    t.publish_fault_streak

let exec t verb user body =
  match verb with
  | Protocol.Ping -> Protocol.Ok "pong\n"
  | Protocol.Stats -> Protocol.Ok (stats_payload t)
  | Protocol.Health -> Protocol.Ok (health_payload t)
  | Protocol.Publish ->
      publish t;
      Protocol.Ok (Printf.sprintf "published seq=%d boot=%d\n" t.seq t.boot)
  | Protocol.Train _ | Protocol.Untrain _ when t.degraded ->
      (* Refused before any state is touched, so a degraded-mode TRAIN
         is safely retryable once a publish recovers.  The "DEGRADED"
         prefix is the client's retry cue. *)
      Protocol.Err
        "DEGRADED: mutations suspended after repeated publish failures; \
         classify still serves the last published snapshot (PUBLISH to \
         recover)"
  | Protocol.Classify | Protocol.Train _ | Protocol.Untrain _ -> (
      match (target_of t user, verb) with
      | Error e, _ -> Protocol.Err e
      | Ok target, Protocol.Train cls -> mutate t target `Train cls body
      | Ok target, Protocol.Untrain cls -> mutate t target `Untrain cls body
      | Ok target, _ -> classify t target body)

(* One request, its body a slice: the connection path hands over the
   frame in the reader's buffer, [handle_request] a whole string. *)
let handle t verb user (body : Spamlab_io.slice) =
  let name = String.lowercase_ascii (Protocol.verb_name verb) in
  count t ("requests." ^ name) 1;
  count t "body.bytes" body.len;
  let start_ns = Clock.now_ns () in
  let resp =
    try exec t verb user body with
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
  Metrics.observe
    (Metrics.histogram t.metrics ~deterministic:false ("latency." ^ name))
    (Int64.to_int (Int64.div (Int64.sub stop_ns start_ns) 1000L));
  if Obs.enabled () then Obs.record_span ("serve.request." ^ name) ~start_ns ~stop_ns;
  resp

let handle_request t (req : Protocol.request) =
  handle t req.verb req.user
    { Spamlab_io.buf = req.body; off = 0; len = String.length req.body }

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let send_response ?deadline fd resp =
  let s = Protocol.render_response resp in
  Spamlab_io.really_write_string ~site:"serve.write" ?deadline fd s 0
    (String.length s)

let send_best_effort ?deadline fd resp =
  try send_response ?deadline fd resp with _ -> ()

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

(* Serve exactly one request read from [r], answering on [fd].
   [shed] answers BUSY without executing (the frame is still read and
   discarded — the stream stays framed).  Returns [`Keep] to keep the
   connection, [`Close] to drop it.  The read deadline is absolute
   across the whole frame, so a peer trickling bytes cannot renew its
   budget; it is disarmed before the (possibly slow) execution so only
   wire time counts.  The body is executed where it lies in the
   reader's buffer, which the next read may reuse: the response is
   written before this returns. *)
let serve_frame t r fd ~shed ~now =
  let lim = t.config.limits in
  Spamlab_io.set_deadline r (opt_deadline ~now lim.read_timeout_s);
  let outcome =
    match Protocol.recv_frame ~max_body:t.config.max_body r with
    | `Eof -> `Close
    | `Error e ->
        count t "protocol.errors" 1;
        send_best_effort
          ?deadline:(opt_deadline ~now lim.write_timeout_s)
          fd (Protocol.Err e);
        `Close
    | `Frame (verb, user, body) -> (
        Spamlab_io.set_deadline r None;
        let resp =
          if shed then begin
            count t "shed.requests" 1;
            Protocol.Busy
          end
          else handle t verb user body
        in
        let write_deadline =
          opt_deadline ~now:(Spamlab_io.monotonic_s ()) lim.write_timeout_s
        in
        match send_response ?deadline:write_deadline fd resp with
        | () -> `Keep
        | exception Spamlab_io.Timeout _ ->
            count t "timeout.write" 1;
            `Close
        | exception (Unix.Unix_error _ | Sys_error _ | Fault.Injected _) ->
            (* Includes a fatal injected write fault — the response is
               torn, so the connection is all that can be given up. *)
            count t "io.errors" 1;
            `Close)
    | exception Spamlab_io.Timeout _ ->
        count t "timeout.read" 1;
        send_best_effort
          ?deadline:(opt_deadline ~now:(Spamlab_io.monotonic_s ()) 1.0)
          fd
          (Protocol.Err "read deadline exceeded");
        `Close
    | exception (End_of_file | Unix.Unix_error _ | Sys_error _) ->
        count t "io.errors" 1;
        `Close
    | exception Fault.Injected _ ->
        (* A fatal injected read fault (transients were retried by
           Spamlab_io): degrade to one ERR, drop the connection. *)
        count t "io.errors" 1;
        send_best_effort fd (Protocol.Err "injected read fault");
        `Close
  in
  Spamlab_io.set_deadline r None;
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
            count t "shed.connections" 1;
            send_best_effort ?deadline:(opt_deadline ~now 1.0) fd Protocol.Busy;
            close_fd fd;
            conns
          end
          else begin
            count t "connections" 1;
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
          count t "drain.aborted" (List.length !conns)
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
                      match serve_frame t c.c_reader c.c_fd ~shed ~now with
                      | `Keep ->
                          c.last_active <- Spamlab_io.monotonic_s ();
                          true
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
                        count t "timeout.idle" 1;
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

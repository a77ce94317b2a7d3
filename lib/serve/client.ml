module Label = Spamlab_spambayes.Label
module Mbox = Spamlab_email.Mbox
module Rng = Spamlab_stats.Rng
module Trec = Spamlab_corpus.Trec
module Generator = Spamlab_corpus.Generator
module Clock = Spamlab_obs.Clock

type conn = { fd : Unix.file_descr; reader : Spamlab_io.reader }

(* Transport errors keep their errno: the backoff logic needs to
   distinguish a daemon that is down or restarting (ECONNREFUSED /
   ENOENT — wait and reconnect) from a connection torn mid-exchange
   (ECONNRESET / EPIPE — replay and retry) from a configuration
   problem (EACCES, a bad address — retrying cannot help). *)
type error = {
  context : string;
  errno : Unix.error option;
  recoverable : bool;  (** worth a reconnect-and-retry *)
}

let error_message err =
  match err.errno with
  | Some e -> Printf.sprintf "%s: %s" err.context (Unix.error_message e)
  | None -> err.context

let transport_recoverable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNABORTED | Unix.EAGAIN
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT | Unix.EINTR ->
      true
  | _ -> false

let unix_error context e =
  { context; errno = Some e; recoverable = transport_recoverable e }

let torn context = { context; errno = None; recoverable = true }

let sockaddr_of = function
  | Daemon.Unix_sock path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Daemon.Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | ip -> Ok (Unix.PF_INET, Unix.ADDR_INET (ip, port))
      | exception Failure _ ->
          Error
            {
              context = Printf.sprintf "bad daemon address %S" host;
              errno = None;
              recoverable = false;
            })

let connect addr =
  (* A daemon crash mid-exchange turns our next write into SIGPIPE,
     which would kill the whole client process; we want the EPIPE
     errno instead, which the recovery logic knows how to absorb. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match sockaddr_of addr with
  | Error e -> Error e
  | Ok (domain, sa) -> (
      let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> Ok { fd; reader = Spamlab_io.reader fd }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (unix_error "connect" e))

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let request conn req =
  let wire = Protocol.render_request req in
  match Spamlab_io.really_write_string conn.fd wire 0 (String.length wire) with
  | exception Unix.Unix_error (e, fn, _) -> Error (unix_error ("send " ^ fn) e)
  | exception Sys_error m -> Error (torn ("send: " ^ m))
  | () -> (
      match Protocol.recv_response conn.reader with
      | `Response r -> Ok r
      | `Eof -> Error (torn "connection closed before response")
      | `Error e -> Error (torn e)
      | exception Unix.Unix_error (e, fn, _) ->
          Error (unix_error ("recv " ^ fn) e)
      | exception Sys_error m -> Error (torn ("recv: " ^ m)))

let roundtrip addr req =
  match connect addr with
  | Error e -> Error e
  | Ok conn ->
      let r = request conn req in
      close conn;
      r

(* Hold a connection open without completing a request: connect, send
   [bytes] (e.g. half a header — or nothing), then sit silent for up to
   [hold_s].  The parasite the overload gates need: ["reaped"] when the
   daemon closes the connection first (deadline/idle reaping worked),
   ["held"] when the full hold elapsed with the connection still up. *)
let stall ~addr ~bytes ~hold_s =
  match connect addr with
  | Error e -> Error e
  | Ok conn ->
      (try
         Spamlab_io.really_write_string conn.fd bytes 0 (String.length bytes)
       with _ -> ());
      let deadline = Spamlab_io.monotonic_s () +. hold_s in
      let buf = Bytes.create 4096 in
      let rec wait () =
        let remaining = deadline -. Spamlab_io.monotonic_s () in
        if remaining <= 0.0 then "held"
        else
          match Unix.select [ conn.fd ] [] [] remaining with
          | exception Unix.Unix_error (EINTR, _, _) -> wait ()
          | [], _, _ -> "held"
          | _ -> (
              (* Readable: either the daemon's parting ERR/BUSY line
                 (keep waiting for the close itself) or EOF/reset. *)
              match Unix.read conn.fd buf 0 (Bytes.length buf) with
              | 0 -> "reaped"
              | _ -> wait ()
              | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
                  "reaped"
              | exception Unix.Unix_error (EINTR, _, _) -> wait ())
      in
      let outcome = wait () in
      close conn;
      Ok outcome

(* ------------------------------------------------------------------ *)
(* Load generation                                                     *)

type load_config = {
  addr : Daemon.addr;
  seed : int;
  clients : int;
  train_size : int;
  train_batch : int;
  eval_size : int;
  classify_batch : int;
  spam_fraction : float;
  users : int;
  user_prefix : string;
  reconnect_attempts : int;
  reconnect_delay_s : float;
}

let default_load ~addr ~seed =
  {
    addr;
    seed;
    clients = 2;
    train_size = 96;
    train_batch = 8;
    eval_size = 48;
    classify_batch = 8;
    spam_fraction = 0.5;
    users = 0;
    user_prefix = "";
    reconnect_attempts = 50;
    reconnect_delay_s = 0.2;
  }

(* Tenant for the [i]th message (or batch) of the schedule: round-robin
   over [users] fixed names, [None] in single-filter mode.  The prefix
   lets concurrent load processes address disjoint tenant sets (chaos
   runs several against one daemon and still expects deterministic
   per-process verdicts — only possible when their state is disjoint). *)
let user_of cfg i =
  if cfg.users <= 0 then None
  else Some (Printf.sprintf "%su%03d" cfg.user_prefix (i mod cfg.users))

type load_report = {
  summary : string;
  detail : string;
  trained : int;
  classified : int;
  reconnects : int;
  wall_s : float;
}

(* "pending=0" style fields out of an ack payload. *)
let ack_field payload key =
  let key = key ^ "=" in
  String.split_on_char '\n' payload
  |> List.concat_map (String.split_on_char ' ')
  |> List.find_map (fun tok ->
         if
           String.length tok > String.length key
           && String.sub tok 0 (String.length key) = key
         then
           int_of_string_opt
             (String.sub tok (String.length key)
                (String.length tok - String.length key))
         else None)

type load_state = {
  cfg : load_config;
  (* Unpublished TRAIN/UNTRAIN requests, in send order, each tagged
     with the publish seq it was acknowledged under and — for tenant
     TRAINs — the tenant's total message count after the apply
     ([user.msgs=] in the ack).  Items acked before the daemon's
     current seq have been incorporated by a publish and are dropped
     lazily as later acks reveal it; the recorded count lets a
     post-restart replay skip entries that a publish this client never
     observed made durable. *)
  mutable unpublished : (int * int option * Protocol.request) list;
  mutable reconnects : int;
  mutable seq : int;
  mutable busy_waits : int;  (* BUSY responses absorbed by backoff *)
  mutable degraded_waits : int;  (* DEGRADED refusals absorbed *)
  mutable restarts : int;  (* daemon restarts detected by a boot change *)
  mutable boot : int option;
      (* The daemon's process id, from the [boot=] on every mutation
         and PUBLISH ack.  A changed id is the restart signal.  It is
         recorded before [note_ack] can buffer anything, so the buffer
         is empty while it is unknown. *)
  mutable draws : int;  (* deterministic jitter counter *)
}

let make_load_state cfg =
  {
    cfg;
    unpublished = [];
    reconnects = 0;
    seq = 0;
    busy_waits = 0;
    degraded_waits = 0;
    restarts = 0;
    boot = None;
    draws = 0;
  }

(* Jitter factor in [0.75, 1.25): desynchronizes concurrent clients
   hammering one recovering daemon without sacrificing determinism.
   It is a pure function of (seed, draw ordinal) through the splitmix64
   finalizer, so a load run's sleep schedule — like everything else
   about it — replays exactly. *)
let jitter st =
  st.draws <- st.draws + 1;
  let z =
    Spamlab_stats.Rng.mix64
      (Int64.add
         (Int64.of_int st.cfg.seed)
         (Int64.mul (Int64.of_int st.draws) 0x9e3779b97f4a7c15L))
  in
  0.75 +. (0.5 *. (Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53))

(* Capped exponential backoff for BUSY/DEGRADED answers.  Starts well
   under [reconnect_delay_s]: shedding clears in one select round
   (milliseconds), unlike a dead daemon. *)
let shed_backoff st attempt =
  let d = Float.min 0.5 (0.02 *. (2.0 ** float_of_int (min attempt 5))) in
  d *. jitter st

let reconnect_backoff st attempt =
  let base = st.cfg.reconnect_delay_s in
  let d = Float.min (base *. 8.0) (base *. (2.0 ** float_of_int (min attempt 3))) in
  d *. jitter st

(* After a TRAIN/UNTRAIN/PUBLISH [Ok] ack: pending = 0 means a publish
   has incorporated every unpublished request (including this one);
   otherwise stale entries (acked under an older seq that a publish
   has since passed) are dropped and this request joins the buffer.
   [Err]/[Busy] never reach here — {!send} retries them, and a
   TRAIN/UNTRAIN answered [Err] was not applied (the daemon rolls back
   partial batches), so there is nothing to buffer. *)
let note_ack st (req : Protocol.request) (resp : Protocol.response) =
  match (req.verb, resp) with
  | (Protocol.Train _ | Protocol.Untrain _), Protocol.Ok payload -> (
      (match ack_field payload "seq" with Some s -> st.seq <- s | None -> ());
      match ack_field payload "pending" with
      | Some 0 -> st.unpublished <- []
      | _ ->
          (* Zero-message requests (the replay probes below) have no
             effect to replay — never buffer them. *)
          if req.body <> "" then
            let msgs_after =
              match req.verb with
              | Protocol.Train _ -> ack_field payload "user.msgs"
              | _ -> None
            in
            st.unpublished <-
              List.filter (fun (s, _, _) -> s >= st.seq) st.unpublished
              @ [ (st.seq, msgs_after, req) ])
  | Protocol.Publish, Protocol.Ok payload ->
      (match ack_field payload "seq" with Some s -> st.seq <- s | None -> ());
      st.unpublished <- []
  | _ -> ()

let is_mutation : Protocol.verb -> bool = function
  | Protocol.Train _ | Protocol.Untrain _ -> true
  | _ -> false

let degraded_refusal msg =
  String.length msg >= 8 && String.sub msg 0 8 = "DEGRADED"

(* One logical request with full recovery:

   - transport failure → wait (errno-dependent backoff) and retry.  A
     torn connection alone is not evidence of state loss — deadline
     reaping and admission shedding tear connections too, and a blind
     replay would double-train;
   - [BUSY] → shed backoff and retry (the request was not executed);
   - [ERR DEGRADED] on a mutation → nudge recovery with a PUBLISH,
     back off, retry;
   - any other [ERR] → bounded retry: TRAIN and UNTRAIN are
     all-or-nothing on the daemon, every other verb is idempotent, so
     a fault-injected error is safe to re-issue (a genuinely semantic
     error just burns the small error budget before surfacing);
   - an [Ok] ack whose [boot=] changed → the daemon restarted, whether
     or not a transport error showed it: the buffer was lost with the
     delta, so replay it.  The current request landed first on the new
     boot — acceptable, because training effects are count-commutative
     and verdicts are only compared after the schedule's own PUBLISH.

   [tries] bounds the total recovery budget across the whole tree. *)
let rec send st tries (req : Protocol.request) =
  match roundtrip st.cfg.addr req with
  | Ok Protocol.Busy ->
      st.busy_waits <- st.busy_waits + 1;
      if tries >= st.cfg.reconnect_attempts then
        Error
          (Printf.sprintf "daemon still busy after %d attempts" tries)
      else begin
        Unix.sleepf (shed_backoff st tries);
        send st (tries + 1) req
      end
  | Ok (Protocol.Err msg) when degraded_refusal msg && is_mutation req.verb ->
      st.degraded_waits <- st.degraded_waits + 1;
      if tries >= st.cfg.reconnect_attempts then
        Error (Printf.sprintf "daemon degraded after %d attempts: %s" tries msg)
      else begin
        Unix.sleepf (shed_backoff st tries);
        (* Recovery cue: one successful publish clears degraded mode
           (and, via its ack, our buffer).  Failure is fine — the
           retried request will just find the daemon still degraded. *)
        (match
           send st (tries + 1)
             { Protocol.verb = Protocol.Publish; body = ""; user = None }
         with
        | Ok _ | Error _ -> ());
        send st (tries + 1) req
      end
  | Ok (Protocol.Err _) when tries < min st.cfg.reconnect_attempts 8 ->
      (* Transient daemon-side failure (injected fault, I/O hiccup). *)
      Unix.sleepf (shed_backoff st tries);
      send st (tries + 1) req
  | Ok resp ->
      let field key =
        match resp with
        | Protocol.Ok payload -> ack_field payload key
        | _ -> None
      in
      let acked_boot = field "boot" in
      let restarted =
        match (acked_boot, st.boot) with
        | Some b, Some b0 -> b <> b0
        | _ -> false
      in
      (match acked_boot with Some b -> st.boot <- Some b | None -> ());
      if restarted then begin
        st.restarts <- st.restarts + 1;
        st.seq <- Option.value ~default:0 (field "seq");
        let buffered = st.unpublished in
        st.unpublished <- [];
        note_ack st req resp;
        (* The triggering request already landed on the new boot, so
           its messages contaminate the tenant count the replay probes
           would read: a lost older batch of the same size would look
           durable and be skipped.  Its own ack tells us both the
           count after it applied and how many messages it added —
           seed the reconciliation with the difference, the durable
           count just before it landed. *)
        let seed =
          match (req.verb, req.user) with
          | Protocol.Train _, Some u when req.body <> "" -> (
              match (field "user.msgs", field "trained") with
              | Some m, Some n -> Some (u, m - n)
              | _ -> None)
          | Protocol.Untrain _, Some u when req.body <> "" -> (
              match (field "user.msgs", field "untrained") with
              | Some m, Some n -> Some (u, m + n)
              | _ -> None)
          | _ -> None
        in
        match replay_buffer st tries ?seed buffered with
        | Error _ as err -> err
        | Ok replayed ->
            (* A replay triggered by a PUBLISH ack landed {e after}
               that publish: the re-trained tokens sit outside the
               freshly frozen intern snapshot, and classification
               reads published state only.  Publish again so the
               replayed training is visible (and durable) exactly as
               it would have been without the crash. *)
            if replayed > 0 && req.verb = Protocol.Publish then
              send st (tries + 1) req
            else Ok resp
      end
      else begin
        note_ack st req resp;
        Ok resp
      end
  | Error err ->
      if (not err.recoverable) || tries >= st.cfg.reconnect_attempts then
        Error
          (Printf.sprintf "%s (after %d attempts)" (error_message err) tries)
      else begin
        st.reconnects <- st.reconnects + 1;
        Unix.sleepf (reconnect_backoff st tries);
        send st (tries + 1) req
      end

(* Replay after an {e observed} restart (a boot change):
   reconcile against the survivor instead of re-sending blindly.  A
   buffered tenant TRAIN may already be durable — a publish commits
   {e every} client's journaled ops, and only the publishing client's
   ack says so — and re-training it would double-apply.  Tenant TRAIN
   acks carry [user.msgs=], the tenant's total message count, which
   lives in the store segments and therefore survives exactly as far
   as the training itself did.  A zero-message probe TRAIN reveals the
   restarted daemon's count: buffered entries at or below it are
   durable and skipped (but kept buffered — if this boot also dies
   unpublished, the next boot's probe decides again); entries above it
   were lost and are re-sent.  The test is exact because each tenant
   is written by one client: per tenant, what survives a crash is a
   prefix of the dead boot's journal order, and the buffered counts
   are cumulative positions in that same order.  Entries without a
   recorded count (no tenant, UNTRAIN) replay blindly.

   The probe cache holds each tenant's durable count {e at replay
   start} and is never advanced by our own resends (they open a new
   journal order the old positions do not map into).  It is valid for
   one boot only: any nested restart (visible as [st.restarts] moving
   inside a [send]) resets it — a count probed from a dead boot must
   never justify a skip.  Returns the number of entries actually
   re-sent. *)
and replay_buffer st tries ?seed entries =
  let probed : (string, int) Hashtbl.t = Hashtbl.create 4 in
  (match seed with Some (u, m) -> Hashtbl.replace probed u m | None -> ());
  let epoch = ref st.restarts in
  let fresh () =
    if !epoch <> st.restarts then begin
      Hashtbl.reset probed;
      epoch := st.restarts
    end
  in
  let current_msgs user =
    fresh ();
    match Hashtbl.find_opt probed user with
    | Some m -> Ok m
    | None -> (
        match
          send st (tries + 1)
            { Protocol.verb = Protocol.Train Label.Ham; body = ""; user = Some user }
        with
        | Ok (Protocol.Ok payload) ->
            (* [min_int] when the field is missing: skip nothing. *)
            let m = Option.value ~default:min_int (ack_field payload "user.msgs") in
            fresh ();
            Hashtbl.replace probed user m;
            Ok m
        | Ok (Protocol.Err e) -> Error ("replay probe: " ^ e)
        | Ok Protocol.Busy -> Error "replay probe: busy (retries exhausted)"
        | Error _ as err -> err)
  in
  let rec go resent = function
    | [] -> Ok resent
    | ((_, msgs_after, (req : Protocol.request)) as entry) :: rest -> (
        let skip =
          match (msgs_after, req.user) with
          | Some m, Some u -> (
              match current_msgs u with
              | Ok cur -> Ok (m <= cur)
              | Error e -> Error e)
          | _ -> Ok false
        in
        match skip with
        | Error e -> Error e
        | Ok true ->
            st.unpublished <- st.unpublished @ [ entry ];
            go resent rest
        | Ok false -> (
            (* Never fold a resent entry's ack back into the cache:
               the cache must stay the tenant's durable count {e at
               replay start}.  Our own resends land in a {e new}
               journal order, so a later buffered entry (say, a
               rebuffered trigger from the previous boot with a small
               journal-position count) would compare against the
               inflated count and be skipped as durable when it was
               never resent at all. *)
            match send st (tries + 1) req with
            | Ok (Protocol.Ok _) -> go (resent + 1) rest
            | Ok (Protocol.Err e) -> Error ("replay after daemon restart: " ^ e)
            | Ok Protocol.Busy ->
                Error "replay after daemon restart: busy (retries exhausted)"
            | Error _ as err -> err))
  in
  go 0 entries

let send st req = send st 0 req

(* Single-label TRAIN batches over a shuffled corpus, in encounter
   order: a batch flushes when it reaches [train_batch] messages.
   With [users > 0], messages are dealt round-robin to tenants and
   batches are keyed (tenant, label); leftover flushes run in sorted
   key order, which for [users = 0] reduces to the historical ham-
   then-spam order (the PR 7 wire schedule, byte for byte). *)
let train_requests cfg (corpus : Trec.labeled array) =
  let reqs = ref [] in
  let buckets = Hashtbl.create 16 in
  let bucket key =
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add buckets key b;
        b
  in
  let flush ((user, cls) as key) =
    let b = bucket key in
    if !b <> [] then begin
      let body = Mbox.print (List.rev !b) in
      b := [];
      reqs := { Protocol.verb = Protocol.Train cls; body; user } :: !reqs
    end
  in
  Array.iteri
    (fun i (label, msg) ->
      let key = (user_of cfg i, label) in
      let b = bucket key in
      b := msg :: !b;
      if List.length !b >= cfg.train_batch then flush key)
    corpus;
  Hashtbl.fold (fun k _ acc -> k :: acc) buckets []
  |> List.sort compare
  |> List.iter flush;
  List.rev !reqs

let classify_requests cfg (eval : Trec.labeled array) =
  let msgs = Array.to_list (Array.map snd eval) in
  let rec batches bi acc = function
    | [] -> List.rev acc
    | l ->
        let rec take n acc = function
          | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let batch, rest = take cfg.classify_batch [] l in
        batches (bi + 1)
          ({
             Protocol.verb = Protocol.Classify;
             body = Mbox.print batch;
             user = user_of cfg bi;
           }
          :: acc)
          rest
  in
  batches 0 [] msgs

let load cfg =
  let t0 = Clock.now_ns () in
  let rng = Rng.create cfg.seed in
  let gen = Generator.default_config ~seed:cfg.seed () in
  let corpus =
    Trec.generate gen (Rng.split_named rng "serve.train") ~size:cfg.train_size
      ~spam_fraction:cfg.spam_fraction
  in
  let eval =
    Trec.generate gen (Rng.split_named rng "serve.eval") ~size:cfg.eval_size
      ~spam_fraction:cfg.spam_fraction
  in
  let st = make_load_state cfg in
  let summary = Buffer.create 1024 in
  let exception Fail of string in
  let must req =
    match send st req with
    | Ok resp -> resp
    | Error e -> raise (Fail e)
  in
  try
    (* Opening PING per logical client. *)
    let pings = ref 0 in
    for _ = 1 to max 1 cfg.clients do
      match must { Protocol.verb = Protocol.Ping; body = ""; user = None } with
      | Protocol.Ok _ -> incr pings
      | Protocol.Err e -> raise (Fail ("ping: " ^ e))
      | Protocol.Busy -> raise (Fail "ping: busy (retries exhausted)")
    done;
    Buffer.add_string summary (Printf.sprintf "ping ok=%d\n" !pings);
    (* Train. *)
    let train_reqs = train_requests cfg corpus in
    let trained = ref 0 and train_malformed = ref 0 in
    List.iter
      (fun req ->
        match must req with
        | Protocol.Ok payload ->
            trained := !trained + Option.value ~default:0 (ack_field payload "trained");
            train_malformed :=
              !train_malformed + Option.value ~default:0 (ack_field payload "malformed")
        | Protocol.Err e -> raise (Fail ("train: " ^ e))
        | Protocol.Busy -> raise (Fail "train: busy (retries exhausted)"))
      train_reqs;
    Buffer.add_string summary
      (Printf.sprintf "train requests=%d messages=%d malformed=%d\n"
         (List.length train_reqs) !trained !train_malformed);
    (* Publish everything before evaluating. *)
    (match must { Protocol.verb = Protocol.Publish; body = ""; user = None } with
    | Protocol.Ok _ -> ()
    | Protocol.Err e -> raise (Fail ("publish: " ^ e))
    | Protocol.Busy -> raise (Fail "publish: busy (retries exhausted)"));
    (* Classify the held-out corpus. *)
    let classify_reqs = classify_requests cfg eval in
    let verdicts = Buffer.create 1024 in
    let classified = ref 0 and cls_malformed = ref 0 in
    let ham = ref 0 and unsure = ref 0 and spam = ref 0 in
    List.iteri
      (fun bi req ->
        match must req with
        | Protocol.Err e -> raise (Fail ("classify: " ^ e))
        | Protocol.Busy -> raise (Fail "classify: busy (retries exhausted)")
        | Protocol.Ok payload ->
            String.split_on_char '\n' payload
            |> List.iter (fun line ->
                   if line <> "" then begin
                     Buffer.add_string verdicts
                       (Printf.sprintf "batch=%d %s\n" bi line);
                     match String.split_on_char ' ' line with
                     | [ _; "malformed" ] -> incr cls_malformed
                     | _ :: v :: _ ->
                         incr classified;
                         if v = "ham" then incr ham
                         else if v = "unsure" then incr unsure
                         else if v = "spam" then incr spam
                     | _ -> ()
                   end))
      classify_reqs;
    Buffer.add_string summary
      (Printf.sprintf
         "classify requests=%d messages=%d ham=%d unsure=%d spam=%d malformed=%d\n"
         (List.length classify_reqs) !classified !ham !unsure !spam !cls_malformed);
    Buffer.add_buffer summary verdicts;
    let stats_detail =
      match must { Protocol.verb = Protocol.Stats; body = ""; user = None } with
      | Protocol.Ok payload -> payload
      | Protocol.Err e -> "stats error: " ^ e ^ "\n"
      | Protocol.Busy -> "stats error: busy\n"
    in
    let wall_s =
      Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9
    in
    let detail =
      Printf.sprintf
        "reconnects=%d busy=%d degraded=%d restarts=%d publish.seq=%d \
         wall_s=%.3f\n\
         --- stats ---\n\
         %s"
        st.reconnects st.busy_waits st.degraded_waits st.restarts st.seq wall_s
        stats_detail
    in
    Ok
      {
        summary = Buffer.contents summary;
        detail;
        trained = !trained;
        classified = !classified;
        reconnects = st.reconnects;
        wall_s;
      }
  with Fail e -> Error e

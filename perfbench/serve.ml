(* The serve workloads: [spamlab serve] as its own process on a
   unix socket, driven by {!Load}, with outputs checked against an
   in-process reference over the same published database. *)

module SB = Spamlab_spambayes
module Filter = SB.Filter
module Ingest = SB.Ingest
module Intern = SB.Intern
module Classify = SB.Classify
module Prob_cache = SB.Prob_cache
module Token_db = SB.Token_db
module Label = SB.Label
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Mbox = Spamlab_email.Mbox
module Message = Spamlab_email.Message
module Lab = Spamlab_eval.Lab
module Trec = Spamlab_corpus.Trec
module Store = Spamlab_store.Store
module Protocol = Spamlab_serve.Protocol
module Client = Spamlab_serve.Client
module Daemon = Spamlab_serve.Daemon
module Attack = Spamlab_core.Dictionary_attack
module Obs = Spamlab_obs.Obs

(* Workload parameters: fixed, and recorded in every result. *)
let world_seed = 42
let world_scale = 0.2
let daemon_jobs = 1
let setup_launches = 5
let prior_size = 2000
let heldout_size = 4096
let connections = 2
let min_samples = 1000

(* [request_p50_ms] averages the medians of this many equal windows
   of a pass. *)
let latency_windows = 10

let bulk_batch = 64
let train_batch = 8
let read_batch = 16
let tenants = 8
let poisoned = [ "t0"; "t1" ]
let attack_share = 0.01
let attack_words = 25_000
let publish_every = 2048

type env = {
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (* scratch directory, relative to the checkout *)
  spamlab : string;  (* the daemon executable *)
}

let tokenizer = Tokenizer.spambayes
let options = SB.Options.default
let classify_req ?user body = { Protocol.verb = Classify; body; user }

let common_provenance r =
  Report.provenance r "world_seed" (string_of_int world_seed ^ " (fixed; --seed draws the mail)");
  Report.provenance r "world_scale" (string_of_float world_scale);
  Report.provenance r "daemon_jobs" (string_of_int daemon_jobs);
  Report.provenance r "prior_msgs" (string_of_int prior_size);
  Report.provenance r "heldout_msgs" (string_of_int heldout_size);
  Report.provenance r "setup_launches" (string_of_int setup_launches)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* The generated world: a training corpus published as the daemon's
   snapshot and a held-out corpus to classify.  The simulated world
   (vocabulary, language models, correspondents) is the repository's
   reference world at every seed; the seed picks which mail is drawn
   from it.  World seeds differ in mean message length by more than
   the bounds allow, which would make every rate a property of the
   seed rather than of the code. *)
let stream env name = Printf.sprintf "perfbench/%s/%d" name env.seed

type world = {
  lab : Lab.t;
  heldout : Message.t array;
  db_path : string;  (* the published snapshot; never written after *)
}

let make_world env =
  let lab =
    Lab.create ~seed:world_seed ~scale:world_scale
      ~jobs:(Domain.recommended_domain_count ())
      ()
  in
  let prior =
    Lab.corpus_messages lab ~name:(stream env "prior") ~size:prior_size
      ~spam_fraction:0.5
  in
  let heldout =
    Array.map snd
      (Lab.corpus_messages lab ~name:(stream env "heldout") ~size:heldout_size
         ~spam_fraction:0.5)
  in
  let filter = Filter.create ~options ~tokenizer () in
  Array.iter (fun (label, m) -> Filter.train filter label m) prior;
  let db_path = Filename.concat env.work "published.db" in
  Filter.save_file filter db_path;
  { lab; heldout; db_path }

(* The in-process reference: the published db scored through the same
   cached engine the daemon uses. *)
let reference_engine db_path =
  match Filter.load_file ~options ~tokenizer db_path with
  | Error e -> failwith e
  | Ok f ->
      Intern.freeze ();
      Classify.engine_cached
        (Prob_cache.create ~shared:true options (Filter.db f))

let expected_payload engine body =
  Checks.render_verdicts (Ingest.classify_mbox_engine engine tokenizer body)

let batches msgs size =
  Array.init
    (Array.length msgs / size)
    (fun i -> Mbox.print (Array.to_list (Array.sub msgs (i * size) size)))

(* Drop the generated world before timing: with a small heap and a
   large minor heap this process's collector stays out of the timed
   phase, where its pauses would read as daemon latency. *)
let quiesce () =
  Gc.compact ();
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 21 }

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

let sock env = Filename.concat env.work "d.sock"
let addr env = Daemon.Unix_sock (sock env)

(* Launch the daemon [setup_launches] times, each from the state
   [fresh i] prepares, and keep the last one running.  [setup_s] is
   the median launch-to-first-PING time. *)
let start_daemon env r ~fresh =
  let log = Filename.concat env.work "daemon.log" in
  let times = Array.make setup_launches 0.0 in
  let live = ref None in
  for i = 0 to setup_launches - 1 do
    let args =
      [ "--jobs"; string_of_int daemon_jobs; "--publish-every"; "0" ]
      @ fresh i
    in
    let pid, s = Proc.launch_daemon ~exe:env.spamlab ~args ~sock:(sock env) ~log in
    times.(i) <- s;
    if i < setup_launches - 1 then Proc.stop_daemon pid else live := Some pid
  done;
  Report.metric r "setup_s" "s" (Stats.median times);
  Option.get !live

let finish_daemon r pid =
  Report.metric r "peak_rss_mb" "MiB" (Proc.peak_rss_mb pid);
  Proc.stop_daemon pid

let absorb r accs =
  List.iter (fun (a : Load.acc) -> Report.merge_tallies r a.tallies) accs;
  List.iter
    (fun (a : Load.acc) ->
      List.iter (fun f -> Report.note r "  request failure: %s" f) a.failures;
      List.iter (fun e -> Report.check r (Error e)) a.mismatches)
    accs

(* The percentiles of [samples] (seconds) as a note line.  p99 is
   flagged when fewer than ten samples lie beyond it. *)
let latency_note r ~what samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then Report.note r "  %s latency: no samples" what
  else
    let p pm = Stats.percentile sorted pm *. 1e3 in
    Report.note r "  %s latency: %d samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms%s"
      what n (p 500) (p 900) (p 990)
      (if Stats.supports ~n 990 then "" else " (p99 thin: under 10 samples beyond it)")

(* [request_p50_ms]: the median latency of the workload's own request
   in each of [latency_windows] windows of the pass from [t0], averaged
   over the windows; [finished.(i)] is when request [i] was answered.
   The note gives the plain percentiles over the whole pass. *)
let request_metric r ~what ~t0 ~elapsed ~finished samples =
  if Array.length samples = 0 then Report.check r (Error (what ^ ": no answers"))
  else begin
    Report.metric r "request_p50_ms" "ms"
      (Stats.windowed_median ~t0 ~elapsed ~windows:latency_windows ~finished samples
      *. 1e3);
    latency_note r ~what samples
  end

(* ------------------------------------------------------------------ *)
(* Per-layer timing helpers                                            *)

(* Seconds per call of [f] over [items], cycling until at least
   [min_s] has passed and every item ran once. *)
let time_per ?(min_s = 0.3) items f =
  let n = Array.length items in
  Array.iter (fun x -> ignore (f x)) items;
  let t0 = Proc.now () in
  let calls = ref 0 in
  while !calls < n || Proc.now () -. t0 < min_s do
    ignore (f items.(!calls mod n));
    incr calls
  done;
  (Proc.now () -. t0) /. float_of_int !calls

let us x = x *. 1e6

(* Timed decode of [reqs] off a file holding their wire bytes. *)
let recv_per_req env reqs =
  let path = Filename.concat env.work "wire.bin" in
  Proc.write_file path
    (String.concat "" (Array.to_list (Array.map Protocol.render_request reqs)));
  let once () =
    let fd = Unix.openfile path [ O_RDONLY ] 0 in
    let reader = Spamlab_io.reader fd in
    let rec go k =
      match Protocol.recv_request reader with
      | `Request _ -> go (k + 1)
      | `Eof -> k
      | `Error e -> failwith ("recv_request: " ^ e)
    in
    let k = go 0 in
    Unix.close fd;
    k
  in
  ignore (once ());
  let t0 = Proc.now () in
  let decoded = ref 0 in
  while Proc.now () -. t0 < 0.3 do
    decoded := !decoded + once ()
  done;
  (Proc.now () -. t0) /. float_of_int !decoded

(* An in-process daemon over a copy of the published db, configured as
   the live one. *)
let in_process_daemon env ~name ~db_path ~store =
  let dir = Filename.concat env.work name in
  Proc.mkdir_p dir;
  let db = Filename.concat dir "live.db" in
  Proc.copy_file ~src:db_path ~dst:db;
  let config =
    {
      (Daemon.default_config
         ~addr:(Daemon.Unix_sock (Filename.concat dir "unused.sock"))
         ~db_path:db ())
      with
      Daemon.publish_every = 0;
      jobs = daemon_jobs;
      store =
        (if store then
           Some
             {
               Store.default_config with
               Store.backend = `Sharded (Filename.concat dir "store");
             }
         else None);
    }
  in
  match Daemon.create config with
  | Ok d -> (d, dir)
  | Error e -> failwith ("in-process daemon: " ^ e)

let counter_delta name f =
  let before = Obs.counter_value name in
  let x = f () in
  (x, Obs.counter_value name - before)

(* The classify path, stage by stage, on the workload's own requests.
   [live_rtt] is the mean service time per request measured on the
   socket; [connect] the mean connect time, part of that round trip
   only when [connect_per_request]. *)
let classify_layers env r ~db_path ~reqs ~msgs_per_req ~live_rtt ~connect
    ~connect_per_request =
  Obs.enable_metrics ();
  let d, _ = in_process_daemon env ~name:"layers" ~db_path ~store:false in
  let (handle, hits), fills =
    counter_delta "spambayes.prob_cache_fills" (fun () ->
        counter_delta "spambayes.prob_cache_hits" (fun () ->
            time_per reqs (Daemon.handle_request d)))
  in
  Daemon.shutdown d;
  let render = time_per reqs Protocol.render_request in
  let recv = recv_per_req env reqs in
  let bodies = Array.map (fun (q : Protocol.request) -> q.body) reqs in
  let chunk = time_per bodies Ingest.raw_message_chunks in
  let chunks =
    Array.concat
      (Array.to_list
         (Array.map
            (fun body ->
              Array.map (fun c -> (body, c)) (Ingest.raw_message_chunks body))
            bodies))
  in
  let ids_of (body, (off, len)) =
    match Ingest.unique_ids_raw tokenizer body ~off ~len with
    | Some (ids, _raw) -> ids
    | None -> [||]
  in
  let ids = time_per chunks ids_of in
  let id_sets = Array.map ids_of chunks in
  let engine_db =
    match Filter.load_file ~options ~tokenizer db_path with
    | Ok f -> Filter.db f
    | Error e -> failwith e
  in
  Intern.freeze ();
  let cache = Prob_cache.create ~shared:true options engine_db in
  let engine = Classify.engine_cached cache in
  let scratch = Array.make 4096 0.0 in
  let collect =
    time_per id_sets (fun ids ->
        let n = Array.length ids in
        let out = if n <= Array.length scratch then scratch else Array.make n 0.0 in
        Prob_cache.collect cache ids n out)
  in
  let score = time_per id_sets (Classify.score_engine engine) in
  Obs.stop ();
  let m = float_of_int msgs_per_req in
  Report.metric r "client.connect_us" "us" (us connect);
  Report.metric r "protocol.render_us_per_req" "us" (us render);
  Report.metric r "protocol.recv_us_per_req" "us" (us recv);
  Report.metric r "daemon.handle_us_per_req" "us" (us handle);
  Report.metric r "ingest.chunk_us_per_req" "us" (us chunk);
  Report.metric r "ingest.ids_us_per_msg" "us" (us ids);
  Report.metric r "intern.size" "tokens" (float_of_int (Intern.size ()));
  Report.metric r "prob_cache.collect_us_per_msg" "us" (us collect);
  Report.metric r "classify.score_us_per_msg" "us" (us score);
  Report.metric r "classify.select_fisher_us_per_msg" "us" (us (score -. collect));
  Report.metric r "prob_cache.hit_ratio" "ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + fills)));
  let outside = Stats.shares ~total:live_rtt [ ("daemon.handle", handle) ] in
  Report.metric r "daemon.outside_handle_share" "ratio" outside.unattributed;
  let inside =
    Stats.shares ~total:handle
      [
        ("ingest.chunk", chunk);
        ("ingest.ids", m *. ids);
        ("classify.score", m *. score);
      ]
  in
  Report.metric r "daemon.unattributed_share" "ratio" inside.unattributed;
  let round_trip =
    Stats.shares ~total:live_rtt
      ((if connect_per_request then [ ("client.connect", connect) ] else [])
      @ [
        ("protocol.render", render);
        ("protocol.recv", recv);
        ("daemon.handle", handle);
      ])
  in
  let print_shares title (s : Stats.shares) =
    Report.note r "  %s" title;
    List.iter
      (fun (name, share) -> Report.note r "    %-26s %6.1f%%" name (share *. 100.0))
      s.stages;
    Report.note r "    %-26s %6.1f%%" "unattributed" (s.unattributed *. 100.0)
  in
  print_shares
    (Printf.sprintf "stage shares of the live round trip (%.1f us)" (us live_rtt))
    round_trip;
  print_shares
    (Printf.sprintf "stage shares of daemon.handle (%.1f us, jobs %d)" (us handle)
       daemon_jobs)
    inside

(* Mean PING round trip on a fresh connection to the live daemon. *)
let ping_rtt env =
  match Client.connect (addr env) with
  | Error e -> failwith (Client.error_message e)
  | Ok conn ->
      let ping = { Protocol.verb = Ping; body = ""; user = None } in
      let n = 500 in
      let t0 = Proc.now () in
      for _ = 1 to n do
        match Client.request conn ping with
        | Ok (Protocol.Ok _) -> ()
        | _ -> failwith "PING failed"
      done;
      let dt = (Proc.now () -. t0) /. float_of_int n in
      Client.close conn;
      dt

(* Mean time to connect to the live daemon and close again. *)
let connect_time env =
  let n = 500 in
  let t0 = Proc.now () in
  for _ = 1 to n do
    match Client.connect (addr env) with
    | Error e -> failwith (Client.error_message e)
    | Ok conn -> Client.close conn
  done;
  (Proc.now () -. t0) /. float_of_int n

(* PING and connect times on the live daemon. *)
let io_layers env r =
  Report.metric r "io.ping_rtt_us" "us" (us (ping_rtt env));
  connect_time env

(* ------------------------------------------------------------------ *)
(* classify-bulk                                                       *)

(* Closed loop of CLASSIFY batches on [connections] persistent
   connections until [seconds] have passed and [min_samples] answers
   are in.  Returns the workers' observations and the elapsed time. *)
let bulk_pass env ~reqs ~expected =
  let nb = Array.length reqs in
  let answered = Atomic.make 0 in
  let abort = Atomic.make false in
  let t0 = Proc.now () in
  let deadline = t0 +. env.seconds in
  let stop () = Proc.now () >= deadline && Atomic.get answered >= min_samples in
  let step w a conn i =
    let b = ((i * connections) + w) mod nb in
    let sent = Proc.now () in
    match Load.send a conn reqs.(b) with
    | `Ok payload ->
        let finished = Proc.now () in
        Load.sample a "latency" (finished -. sent);
        Load.sample a "done" finished;
        Atomic.incr answered;
        Load.count a "verdicts" bulk_batch;
        (match
           Checks.compare_text ~what:"CLASSIFY verdicts" ~expected:expected.(b)
             ~got:payload
         with
        | Ok () -> ()
        | Error e -> Load.mismatch a e);
        true
    | `Refused -> true
    | `Lost -> false
  in
  let accs =
    Load.closed_loop ~addr:(addr env) ~stop ~abort
      (List.init connections (fun w -> step w))
  in
  (accs, t0, Proc.now () -. t0)

let classify_bulk env r =
  common_provenance r;
  Report.provenance r "arrival" "closed loop";
  Report.provenance r "connections" (string_of_int connections);
  Report.provenance r "msgs_per_request" (string_of_int bulk_batch);
  Report.provenance r "latency_windows" (string_of_int latency_windows);
  let world = make_world env in
  let db_path = world.db_path and heldout = world.heldout in
  Lab.shutdown world.lab;
  let bodies = batches heldout bulk_batch in
  let engine = reference_engine db_path in
  let expected = Array.map (expected_payload engine) bodies in
  let reqs = Array.map (fun b -> classify_req b) bodies in
  quiesce ();
  let pid = start_daemon env r ~fresh:(fun _ -> [ "--db"; db_path ]) in
  let accs, t0, elapsed = bulk_pass env ~reqs ~expected in
  absorb r accs;
  let verdicts = Load.total accs "verdicts" in
  let lat = Load.samples accs "latency" in
  request_metric r
    ~what:(Printf.sprintf "CLASSIFY of %d messages" bulk_batch)
    ~t0 ~elapsed ~finished:(Load.samples accs "done") lat;
  Report.metric r "throughput_per_s" "1/s" (float_of_int verdicts /. elapsed);
  Report.note r "  %d verdicts in %.2f s" verdicts elapsed;
  if env.trace then begin
    (* The live path carries no instrumentation in this workload: every
       layer is timed in-process after the daemon stops, so tracing
       overhead on the live numbers is zero by construction. *)
    Report.note r "  tracing overhead 0: layers are timed after the live pass";
    let connect = io_layers env r in
    finish_daemon r pid;
    classify_layers env r ~db_path ~reqs ~msgs_per_req:bulk_batch
      ~live_rtt:(Stats.mean lat) ~connect ~connect_per_request:false
  end
  else finish_daemon r pid

(* ------------------------------------------------------------------ *)
(* The classify layers on their own                                    *)

(* The classify layers for a traced run of another workload: a fresh
   world and daemon at the run's seed, and one-message CLASSIFY
   requests sent back to back with a connection each, as spamc sends a
   single mail, so connect, accept and framing weigh as they do per
   request.  Their mean round trip is what the layers are shared out
   of. *)
let classify_profile env r =
  let world = make_world env in
  Lab.shutdown world.lab;
  let reqs =
    Array.map (fun m -> classify_req (Mbox.print [ m ])) (Array.sub world.heldout 0 512)
  in
  quiesce ();
  let pid, _ =
    Proc.launch_daemon ~exe:env.spamlab
      ~args:[ "--jobs"; string_of_int daemon_jobs; "--publish-every"; "0"; "--db"; world.db_path ]
      ~sock:(sock env)
      ~log:(Filename.concat env.work "daemon.log")
  in
  let connect = io_layers env r in
  let t0 = Proc.now () in
  Array.iter
    (fun req ->
      match Client.connect (addr env) with
      | Error e -> failwith (Client.error_message e)
      | Ok conn ->
          (match Client.request conn req with
          | Ok (Protocol.Ok _) -> ()
          | _ -> failwith "CLASSIFY failed");
          Client.close conn)
    reqs;
  let live_rtt = (Proc.now () -. t0) /. float_of_int (Array.length reqs) in
  Proc.stop_daemon pid;
  classify_layers env r ~db_path:world.db_path ~reqs ~msgs_per_req:1 ~live_rtt ~connect
    ~connect_per_request:true

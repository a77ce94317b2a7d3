(* train-poisoned: TRAIN beside CLASSIFY on a tenant-store daemon, with
   1% dictionary-attack mail in the training stream.  The only workload
   that runs the write path, so its check is the strongest: the
   daemon's final db and store directory must equal, byte for byte, an
   in-process replay of the writer's requests. *)

open Serve

(* The shared filter (no User header) and the tenants, round-robin. *)
let targets =
  Array.append [| None |]
    (Array.init tenants (fun i -> Some (Printf.sprintf "t%d" i)))

let is_poisoned = function
  | Some t -> List.mem t poisoned
  | None -> false

(* The writer's request stream: deterministic in the corpus, so the
   requests actually sent can be replayed exactly. *)
type stream = {
  hams : Message.t array;
  spams : Message.t array;
  attack : Message.t;
  mutable batch : int;
  mutable trained : int;
  mutable attacks : int;
  mutable ham_pos : int;
  mutable spam_pos : int;
  mutable since_publish : int;
}

let publish_req = { Protocol.verb = Publish; body = ""; user = None }

(* Single-label TRAIN batches, each target alternating ham and spam; a
   spam batch to a poisoned tenant carries an attack mail whenever the
   attack count is below [attack_share] of the messages trained.  A
   PUBLISH follows every [publish_every] trained messages. *)
let next_request st =
  if st.since_publish >= publish_every then begin
    st.since_publish <- 0;
    publish_req
  end
  else begin
    let k = st.batch in
    st.batch <- k + 1;
    let nt = Array.length targets in
    let user = targets.(k mod nt) in
    let label = if k / nt mod 2 = 0 then Label.Ham else Label.Spam in
    let take pool pos =
      Array.init train_batch (fun j -> pool.((pos + j) mod Array.length pool))
    in
    let msgs =
      match label with
      | Label.Ham ->
          let m = take st.hams st.ham_pos in
          st.ham_pos <- st.ham_pos + train_batch;
          m
      | Label.Spam ->
          let m = take st.spams st.spam_pos in
          st.spam_pos <- st.spam_pos + train_batch;
          m
    in
    if
      label = Label.Spam && is_poisoned user
      && float_of_int (st.attacks + 1)
         <= attack_share *. float_of_int (st.trained + train_batch)
    then begin
      st.attacks <- st.attacks + 1;
      msgs.(0) <- st.attack
    end;
    st.trained <- st.trained + train_batch;
    st.since_publish <- st.since_publish + train_batch;
    { Protocol.verb = Train label; body = Mbox.print (Array.to_list msgs); user }
  end

let ack_ok payload = String.starts_with ~prefix:(Printf.sprintf "trained=%d malformed=0 " train_batch) payload

(* The first requests of a stream, up to and including its [n]th
   PUBLISH. *)
let upto_publishes n requests =
  let rec go acc seen = function
    | [] -> List.rev acc
    | (q : Protocol.request) :: rest ->
        let seen = if q.verb = Protocol.Publish then seen + 1 else seen in
        if seen = n then List.rev (q :: acc) else go (q :: acc) seen rest
  in
  go [] 0 requests

(* The writer gives up on ending at a PUBLISH this long after the
   deadline, so a stalled publish cannot hold the run past its limit. *)
let overrun_s = 60.0

(* One timed pass: the writer and the reader run until [seconds] have
   passed and the writer's last request was a PUBLISH, so a pass holds
   whole train-and-publish cycles and its rates do not depend on where
   the deadline fell in a cycle.  Every writer request goes to [log],
   newest first. *)
let pass env st log ~reader_batches =
  let finished = Atomic.make false in
  let abort = Atomic.make false in
  let t0 = Proc.now () in
  let deadline = t0 +. env.seconds in
  let stop () = Atomic.get finished || Proc.now () > deadline +. overrun_s in
  let writer a conn _ =
    let req = next_request st in
    log := req :: !log;
    let sent = Proc.now () in
    match Load.send a conn req with
    | `Ok payload -> (
        let dt = Proc.now () -. sent in
        match req.verb with
        | Protocol.Publish ->
            Load.sample a "publish" dt;
            if Proc.now () >= deadline then Atomic.set finished true;
            true
        | _ ->
            Load.sample a "train" dt;
            Load.sample a "train_done" (Proc.now ());
            if ack_ok payload then Load.count a "trained" train_batch
            else Load.mismatch a ("unexpected TRAIN ack: " ^ String.trim payload);
            true)
    | `Refused -> true
    | `Lost -> false
  in
  let reader a conn i =
    let nt = Array.length targets in
    let req =
      classify_req ?user:targets.(i mod nt)
        reader_batches.(i / nt mod Array.length reader_batches)
    in
    let sent = Proc.now () in
    match Load.send a conn req with
    | `Ok payload ->
        Load.sample a "classify" (Proc.now () -. sent);
        let lines = List.length (String.split_on_char '\n' payload) - 1 in
        if lines = read_batch then Load.count a "verdicts" read_batch
        else
          Load.mismatch a
            (Printf.sprintf "CLASSIFY answered %d verdict lines for %d messages"
               lines read_batch);
        true
    | `Refused -> true
    | `Lost -> false
  in
  let accs = Load.closed_loop ~addr:(addr env) ~stop ~abort [ writer; reader ] in
  (accs, t0, Proc.now () -. t0)

let report_pass r accs t0 elapsed =
  absorb r accs;
  let per_s key = float_of_int (Load.total accs key) /. elapsed in
  request_metric r
    ~what:(Printf.sprintf "TRAIN of %d messages" train_batch)
    ~t0 ~elapsed ~finished:(Load.samples accs "train_done") (Load.samples accs "train");
  Report.metric r "throughput_per_s" "1/s" (per_s "trained");
  latency_note r ~what:"PUBLISH" (Load.samples accs "publish");
  latency_note r ~what:(Printf.sprintf "reader CLASSIFY of %d messages" read_batch)
    (Load.samples accs "classify");
  Report.note r "  reader: %.1f verdicts/s beside the writer" (per_s "verdicts");
  Report.note r "  %d trained, %d publishes, %d verdicts in %.2f s"
    (Load.total accs "trained")
    (Array.length (Load.samples accs "publish"))
    (Load.total accs "verdicts") elapsed

(* Replay the writer's requests through an in-process daemon built like
   the live one; returns its directory and the handle time of each
   request, in order. *)
let replay env ~db_path requests =
  let d, dir = in_process_daemon env ~name:"replay" ~db_path ~store:true in
  let times =
    List.map
      (fun req ->
        let t0 = Proc.now () in
        let resp = Daemon.handle_request d req in
        let dt = Proc.now () -. t0 in
        (match resp with
        | Protocol.Ok _ -> ()
        | _ -> failwith "replayed request was not answered OK");
        (req, dt))
      requests
  in
  Daemon.shutdown d;
  (dir, times)

let store_clean dir =
  match Store.verify_dir dir with
  | Error e -> Error ("store verify: " ^ e)
  | Ok rep ->
      let bad =
        List.filter
          (fun (s : Store.shard_report) ->
            (match s.segment with `Ok | `Missing -> false | _ -> true)
            || match s.journal with `Ok _ | `Missing -> false | _ -> true)
          rep.shard_reports
      in
      if Result.is_error rep.prior_ok then Error "store verify: prior corrupt"
      else if bad <> [] then
        Error
          (Printf.sprintf "store verify: %d shard(s) not clean, first shard %d"
             (List.length bad) (List.hd bad).shard)
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Per-layer: the write path, call by call, on the writer's stream     *)

let mean_of l = Stats.mean (Array.of_list l)

let timed f =
  let t0 = Proc.now () in
  let x = f () in
  (x, Proc.now () -. t0)

(* The writer's requests up to its second PUBLISH, replayed layer by
   layer.  [live_train] is the mean TRAIN round trip on the socket, when
   a live pass ran. *)
let write_layers env r ~db_path ~st ~requests ~handles ~reader_batches ~live_train
    =
  let requests = upto_publishes 2 requests in
  let trains =
    List.filter_map
      (fun (q : Protocol.request) ->
        match q.verb with Protocol.Train l -> Some (l, q) | _ -> None)
      requests
  in
  let parse_times, parsed =
    List.split
      (List.map
         (fun (_, (q : Protocol.request)) ->
           let (msgs, _), dt = timed (fun () -> Mbox.parse_lenient q.body) in
           (dt /. float_of_int (List.length msgs), msgs))
         trains)
  in
  let ordinary =
    Array.of_list
      (List.filter (fun m -> m != st.attack) (List.concat parsed))
  in
  let featurizer = Filter.create ~options ~tokenizer () in
  let features = time_per ordinary (Filter.features featurizer) in
  let attack_features =
    time_per ~min_s:0.5 [| st.attack |] (Filter.features featurizer)
  in
  (* The store layer on a scratch store configured as the daemon's. *)
  let prior =
    match Filter.load_file ~options ~tokenizer db_path with
    | Ok f -> f
    | Error e -> failwith e
  in
  let sdir = Filename.concat env.work "layer-store" in
  let store =
    match
      Store.open_store ~options ~prior:(Token_db.copy (Filter.db prior))
        { Store.default_config with Store.backend = `Sharded sdir }
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let delta = prior in
  let train_t = ref [] and commit_t = ref [] and compact_t = ref [] in
  let save_t = ref [] and copy_t = ref [] and freeze_t = ref [] in
  let create_t = ref [] and distinct = ref 0 and tenant_msgs = ref 0 in
  let db_out = Filename.concat env.work "layer.db" in
  let parsed_by_req = ref parsed in
  List.iter
    (fun (q : Protocol.request) ->
      match q.verb with
      | Protocol.Train label -> (
          let msgs = List.hd !parsed_by_req in
          parsed_by_req := List.tl !parsed_by_req;
          match q.user with
          | None -> List.iter (Filter.train delta label) msgs
          | Some user ->
              List.iter
                (fun m ->
                  let f = Filter.features delta m in
                  let (), dt = timed (fun () -> Store.train store ~user label f) in
                  incr tenant_msgs;
                  train_t := dt :: !train_t)
                msgs)
      | Protocol.Publish ->
          let (), dt = timed (fun () -> Store.commit store) in
          commit_t := dt :: !commit_t;
          let (), dt = timed (fun () -> Filter.save_file delta db_out) in
          save_t := dt :: !save_t;
          let snapshot, dt = timed (fun () -> Token_db.copy (Filter.db delta)) in
          copy_t := dt :: !copy_t;
          let (), dt = timed Intern.freeze in
          freeze_t := dt :: !freeze_t;
          let _, dt =
            timed (fun () -> Prob_cache.create ~shared:true options snapshot)
          in
          create_t := dt :: !create_t;
          distinct := Token_db.distinct_tokens snapshot;
          let (), dt = timed (fun () -> Store.compact_all store) in
          compact_t := dt :: !compact_t
      | _ -> ())
    requests;
  (* Tenant scoring through the overlay engines the reader hits. *)
  let id_sets =
    Array.concat
      (Array.to_list
         (Array.map
            (fun body ->
              Array.map
                (fun (off, len) ->
                  match Ingest.unique_ids_raw tokenizer body ~off ~len with
                  | Some (ids, _raw) -> ids
                  | None -> [||])
                (Ingest.raw_message_chunks body))
            reader_batches))
  in
  let nt = Array.length targets - 1 in
  let k = ref 0 in
  let tenant_score =
    time_per id_sets (fun ids ->
        incr k;
        let user = Printf.sprintf "t%d" (!k mod nt) in
        Store.with_user_engine store user (fun e -> Classify.score_engine e ids))
  in
  let ss = Store.stats store in
  Store.close store;
  let ms x = x *. 1e3 in
  let publish_named =
    [
      ("store.commit", mean_of !commit_t);
      ("store.compact_all", mean_of !compact_t);
      ("filter.save_file", mean_of !save_t);
      ("token_db.copy", mean_of !copy_t);
      ("intern.freeze", mean_of !freeze_t);
      ("prob_cache.create", mean_of !create_t);
    ]
  in
  let handle_of verb =
    mean_of
      (List.filter_map
         (fun ((q : Protocol.request), dt) ->
           if Protocol.verb_name q.verb = verb then Some dt else None)
         handles)
  in
  let publish_handle = handle_of "PUBLISH" and train_handle = handle_of "TRAIN" in
  Report.metric r "mbox.parse_us_per_msg" "us" (us (mean_of parse_times));
  Report.metric r "filter.features_us_per_msg" "us" (us features);
  Report.metric r "filter.features_ms_per_attack" "ms" (ms attack_features);
  Report.metric r "store.train_us_per_msg" "us" (us (mean_of !train_t));
  Report.metric r "store.tenant_score_us_per_msg" "us" (us tenant_score);
  Report.metric r "store.commit_ms" "ms" (ms (mean_of !commit_t));
  Report.metric r "store.compact_all_ms" "ms" (ms (mean_of !compact_t));
  Report.metric r "store.journal_bytes_per_msg" "B"
    (float_of_int ss.journal_bytes /. float_of_int (max 1 !tenant_msgs));
  Report.metric r "store.compactions" "count" (float_of_int ss.compactions);
  Report.metric r "store.overlay_hit_ratio" "ratio"
    (float_of_int ss.hits /. float_of_int (max 1 (ss.hits + ss.misses)));
  Report.metric r "filter.save_ms" "ms" (ms (mean_of !save_t));
  Report.metric r "token_db.copy_ms" "ms" (ms (mean_of !copy_t));
  Report.metric r "intern.freeze_ms" "ms" (ms (mean_of !freeze_t));
  Report.metric r "prob_cache.create_ms" "ms" (ms (mean_of !create_t));
  Report.metric r "token_db.distinct_tokens" "tokens" (float_of_int !distinct);
  Report.metric r "daemon.train_handle_us_per_req" "us" (us train_handle);
  let publish = Stats.shares ~total:publish_handle publish_named in
  Report.metric r "publish.unattributed_share" "ratio" publish.unattributed;
  Report.note r "  stage shares of the in-process PUBLISH (%.2f ms)"
    (ms publish_handle);
  List.iter
    (fun (name, s) -> Report.note r "    %-26s %6.1f%%" name (s *. 100.0))
    publish.stages;
  Report.note r "    %-26s %6.1f%%" "unattributed" (publish.unattributed *. 100.0);
  Option.iter
    (fun live ->
      Report.note r "  live TRAIN round trip %.3f ms, in-process handle %.3f ms (%.1f%% outside it)"
        (ms live) (ms train_handle)
        ((Stats.shares ~total:live [ ("handle", train_handle) ]).unattributed *. 100.0))
    live_train

(* The writer's stream over [world]: training mail drawn at the run's
   seed and the usenet dictionary attack mail. *)
let make_stream env (world : world) =
  let stream =
    Lab.corpus_messages world.lab ~name:(stream env "stream") ~size:2048
      ~spam_fraction:0.5
  in
  let attack =
    Attack.email
      (Attack.make ~name:"usenet"
         ~words:(Lab.usenet_top world.lab ~size:attack_words))
  in
  {
    hams = Trec.ham_only stream;
    spams = Trec.spam_only stream;
    attack;
    batch = 0;
    trained = 0;
    attacks = 0;
    ham_pos = 0;
    spam_pos = 0;
    since_publish = 0;
  }

let train_poisoned env r =
  common_provenance r;
  Report.provenance r "arrival" "closed loop: 1 writer + 1 reader connection";
  Report.provenance r "train_batch" (string_of_int train_batch);
  Report.provenance r "classify_batch" (string_of_int read_batch);
  Report.provenance r "tenants" (string_of_int tenants);
  Report.provenance r "poisoned_tenants" (String.concat "," poisoned);
  Report.provenance r "attack" (Printf.sprintf "usenet dictionary, %d words" attack_words);
  Report.provenance r "attack_share" (string_of_float attack_share);
  Report.provenance r "publish_every_msgs" (string_of_int publish_every);
  Report.provenance r "latency_windows" (string_of_int latency_windows);
  let world = make_world env in
  let db_path = world.db_path in
  let st = make_stream env world in
  let reader_batches = batches world.heldout read_batch in
  Lab.shutdown world.lab;
  let live_db = Filename.concat env.work "live.db" in
  Proc.copy_file ~src:db_path ~dst:live_db;
  let store_dir i = Filename.concat env.work (Printf.sprintf "store-%d" i) in
  quiesce ();
  let pid =
    start_daemon env r ~fresh:(fun i ->
        [ "--db"; live_db; "--store-dir"; store_dir i ])
  in
  let log = ref [] in
  let accs, t0, elapsed = pass env st log ~reader_batches in
  report_pass r accs t0 elapsed;
  let live_train = Stats.mean (Load.samples accs "train") in
  if env.trace then
    Report.note r
      "  tracing overhead 0: the live path carries no instrumentation, layers \
       are timed in-process after it";
  (* The final PUBLISH compacts every shard to its canonical bytes. *)
  let final = Load.acc () in
  (match Client.connect (addr env) with
  | Error e -> Load.lost_connect final "PUBLISH" e
  | Ok conn ->
      log := publish_req :: !log;
      ignore (Load.send final conn publish_req);
      Client.close conn);
  absorb r [ final ];
  finish_daemon r pid;
  let requests = List.rev !log in
  let attacks = st.attacks in
  Report.note r "  writer sent %d requests, %d messages, %d attack mails"
    (List.length requests) st.trained attacks;
  let t_replay = Proc.now () in
  let replay_dir, handles = replay env ~db_path requests in
  Report.note r "  replay of the writer's requests took %.2f s" (Proc.now () -. t_replay);
  Report.check r
    (Checks.compare_files ~expected:(Filename.concat replay_dir "live.db")
       ~got:live_db);
  let live_store = store_dir (setup_launches - 1) in
  Report.check r
    (Checks.compare_trees ~expected:(Filename.concat replay_dir "store")
       ~got:live_store);
  Report.check r (store_clean live_store);
  if env.trace then begin
    Obs.enable_metrics ();
    write_layers env r ~db_path ~st ~requests ~handles ~reader_batches
      ~live_train:(Some live_train);
    Obs.stop ()
  end

(* The write layers on their own, for a traced run whose workload does
   not train: the writer's stream at the run's seed, generated up to its
   second PUBLISH without a live daemon and replayed in-process. *)
let write_profile env r =
  let world = make_world env in
  let st = make_stream env world in
  let reader_batches = batches world.heldout read_batch in
  Lab.shutdown world.lab;
  let rec gen acc publishes =
    if publishes = 2 then List.rev acc
    else
      let q = next_request st in
      gen (q :: acc) (if q.verb = Protocol.Publish then publishes + 1 else publishes)
  in
  let requests = gen [] 0 in
  let _, handles = replay env ~db_path:world.db_path requests in
  Obs.enable_metrics ();
  write_layers env r ~db_path:world.db_path ~st ~requests ~handles ~reader_batches
    ~live_train:None;
  Obs.stop ()

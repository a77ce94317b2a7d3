(* Bench harness: regenerates every table and figure of the paper
   (through Spamlab_eval.Registry) and micro-benchmarks the hot paths
   with bechamel.

   Usage:
     main.exe                     run every experiment at --scale (default 0.2)
     main.exe fig1 fig2           run specific experiments
     main.exe perf                run the bechamel micro-benchmarks
     main.exe load                time daemon start-up by stage
     main.exe all perf            both
     main.exe --scale 1.0 all     paper-scale run
     main.exe --seed 7 fig3       change the world seed
     main.exe --jobs 8 fig1       fan experiment cells over 8 domains
                                  (default: SPAMLAB_JOBS if set, else the
                                  recommended domain count; results are
                                  identical at every jobs value)
     main.exe --trace t.jsonl fig1   write a JSONL execution trace
     main.exe --metrics fig1         dump counters/span timings to stderr
     main.exe --timings t.json all   machine-readable per-experiment
                                     wall-clock times *)

open Spamlab_eval
module Obs = Spamlab_obs.Obs

let default_scale = 0.2

let usage () =
  prerr_endline
    ("usage: main.exe [--scale S] [--seed N] [--jobs N] [--trace FILE] \
      [--metrics] [--timings FILE] \
      [all|perf|ingest|serve|store|classify|load|trajectory|"
    ^ String.concat "|" Registry.ids ^ "]...");
  exit 2

type cli = {
  scale : float;
  seed : int;
  jobs : int;
  trace : string option;
  metrics : bool;
  timings : string option;
  targets : string list;
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--scale" :: v :: rest -> (
        match float_of_string_opt v with
        | Some scale when scale > 0.0 -> go { acc with scale } rest
        | _ -> usage ())
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some seed -> go { acc with seed } rest
        | None -> usage ())
    | "--jobs" :: v :: rest -> (
        (* Shared validation: same message as the spamlab CLI and the
           SPAMLAB_JOBS environment path. *)
        match Spamlab_parallel.parse_jobs v with
        | Ok jobs -> go { acc with jobs } rest
        | Error msg ->
            prerr_endline msg;
            exit 2)
    | "--trace" :: path :: rest -> go { acc with trace = Some path } rest
    | "--metrics" :: rest -> go { acc with metrics = true } rest
    | "--timings" :: path :: rest -> go { acc with timings = Some path } rest
    | target :: rest ->
        if
          target = "all" || target = "perf" || target = "ingest"
          || target = "serve" || target = "store" || target = "classify"
          || target = "load" || target = "trajectory"
          || Registry.find target <> None
        then go { acc with targets = acc.targets @ [ target ] } rest
        else usage ()
  in
  let default =
    {
      scale = default_scale;
      seed = 42;
      jobs = Spamlab_parallel.default_jobs ();
      trace = None;
      metrics = false;
      timings = None;
      targets = [];
    }
  in
  let cli = go default (List.tl (Array.to_list Sys.argv)) in
  if cli.targets = [] then { cli with targets = [ "all"; "perf" ] } else cli

(* ------------------------------------------------------------------ *)
(* Experiment reproduction                                             *)

let hrule = String.make 72 '='

let run_experiment lab (e : Registry.experiment) =
  Printf.printf "%s\n%s\n%s\n" hrule e.Registry.title hrule;
  Printf.printf "paper: %s\n\n" e.Registry.paper_claim;
  let started = Unix.gettimeofday () in
  let report = e.Registry.run lab in
  let seconds = Unix.gettimeofday () -. started in
  print_string report;
  Printf.printf "\n[%s finished in %.1fs]\n\n" e.Registry.id seconds;
  flush stdout;
  (e.Registry.id, seconds)

let run_experiments lab = function
  | "all" -> List.map (run_experiment lab) Registry.all
  | id -> (
      match Registry.find id with
      | Some e -> [ run_experiment lab e ]
      | None -> usage ())

(* Machine-readable per-experiment wall-clock times, one object per run:
   {"seed":42,"scale":0.2,"jobs":4,"experiments":[{"id":"fig1",...}]} *)
let write_timings path ~seed ~scale ~jobs timings =
  let oc = open_out path in
  Printf.fprintf oc "{\"seed\":%d,\"scale\":%.6g,\"jobs\":%d,\"experiments\":["
    seed scale jobs;
  List.iteri
    (fun i (id, seconds) ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc "{\"id\":\"%s\",\"seconds\":%.6f}"
        (Spamlab_obs.Json.escape_string id)
        seconds)
    timings;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Sustained ingest throughput: full raw mbox -> ids -> verdict, the
   spamd-shaped workload.  Three variants per tokenizer: the legacy
   string pipeline (parse to messages, tokenize to strings, intern,
   score), the zero-copy span path (chunks by offsets, slices hashed
   straight into the intern table), and the span path fanned over the
   domain pool.  Reported as messages/sec; the --timings entries carry
   seconds per full mbox pass under ids "ingest-<tokenizer>-<path>". *)

let run_ingest lab ~jobs =
  let module Tok = Spamlab_tokenizer.Tokenizer in
  let module SB = Spamlab_spambayes in
  Printf.printf "%s\ningest throughput (sustained, full raw mbox)\n%s\n" hrule
    hrule;
  let size = max 200 (int_of_float (4_000.0 *. Lab.scale lab)) in
  let labeled =
    Lab.corpus_messages lab ~name:"ingest-bench" ~size ~spam_fraction:0.5
  in
  let text =
    Spamlab_email.Mbox.print (Array.to_list (Array.map snd labeled))
  in
  let pool = Lab.pool lab in
  Printf.printf "%d messages, %d KiB raw mbox, pool jobs %d\n\n" size
    (String.length text / 1024)
    jobs;
  let timings = ref [] in
  List.iter
    (fun (tname, tokenizer) ->
      let filter = SB.Filter.create ~tokenizer () in
      Array.iter (fun (label, m) -> SB.Filter.train filter label m) labeled;
      SB.Intern.freeze ();
      let options = SB.Filter.options filter in
      let db = SB.Filter.db filter in
      let chunks = Spamlab_email.Mbox.chunks text in
      let engine = SB.Classify.engine options db in
      let legacy () =
        let msgs, _ = Spamlab_email.Mbox.parse_lenient text in
        List.iter
          (fun m ->
            ignore
              (SB.Classify.score_engine engine
                 (SB.Intern.intern_array (Tok.unique_tokens tokenizer m))))
          msgs
      in
      let zerocopy () =
        Array.iter
          (fun (off, len) ->
            ignore (SB.Ingest.classify_raw_engine engine tokenizer text ~off ~len))
          chunks
      in
      let fanned () =
        ignore
          (Spamlab_parallel.Pool.map_array pool
             (fun (off, len) ->
               SB.Ingest.classify_raw_engine engine tokenizer text ~off ~len)
             chunks)
      in
      (* ids-only variants isolate the ingest cost itself: scoring is the
         same work on both paths, so the end-to-end ratio understates the
         tokenize+intern gain for token-heavy tokenizers. *)
      let legacy_ids () =
        let msgs, _ = Spamlab_email.Mbox.parse_lenient text in
        List.iter
          (fun m ->
            ignore (SB.Intern.intern_array (Tok.unique_tokens tokenizer m)))
          msgs
      in
      let zerocopy_ids () =
        Array.iter
          (fun (off, len) ->
            ignore (SB.Ingest.unique_ids_raw tokenizer text ~off ~len))
          chunks
      in
      let measure name f =
        f ();
        let t0 = Unix.gettimeofday () in
        let iters = ref 0 in
        while Unix.gettimeofday () -. t0 < 0.4 do
          f ();
          incr iters
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        let per_pass = elapsed /. float_of_int !iters in
        let mps = float_of_int size /. per_pass in
        Printf.printf "  %-42s %12.0f msgs/sec\n" name mps;
        timings := !timings @ [ (name, per_pass) ];
        mps
      in
      Printf.printf "%s\n" tname;
      let base = measure (Printf.sprintf "ingest-%s-legacy" tname) legacy in
      let zc = measure (Printf.sprintf "ingest-%s-zerocopy" tname) zerocopy in
      ignore (measure (Printf.sprintf "ingest-%s-pool" tname) fanned);
      let base_ids =
        measure (Printf.sprintf "ingest-%s-ids-legacy" tname) legacy_ids
      in
      let zc_ids =
        measure (Printf.sprintf "ingest-%s-ids-zerocopy" tname) zerocopy_ids
      in
      Printf.printf "  %-42s %12.2fx\n" "zerocopy speedup vs legacy (classify)"
        (zc /. base);
      Printf.printf "  %-42s %12.2fx\n\n" "zerocopy speedup vs legacy (ids only)"
        (zc_ids /. base_ids))
    Tok.all;
  flush stdout;
  !timings

(* ------------------------------------------------------------------ *)
(* Daemon round-trip throughput: a live spamlab serve on a unix socket
   in a temp dir, driven over a persistent connection.  Reported as
   messages/sec with per-request p50/p99 round-trip latency; the
   --timings entries carry seconds per message under ids
   "serve-ping" / "serve-train-b16" / "serve-classify-b16". *)

let run_serve lab ~jobs =
  let module Serve = Spamlab_serve in
  let module Label = Spamlab_spambayes.Label in
  Printf.printf "%s\nserve round-trip throughput (unix socket)\n%s\n" hrule
    hrule;
  let size = max 200 (int_of_float (2_000.0 *. Lab.scale lab)) in
  let labeled =
    Lab.corpus_messages lab ~name:"serve-bench" ~size ~spam_fraction:0.5
  in
  let dir = Filename.temp_file "spamlab_bench" ".serve" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Serve.Daemon.Unix_sock (Filename.concat dir "bench.sock") in
  let config =
    {
      (Serve.Daemon.default_config ~addr
         ~db_path:(Filename.concat dir "db.bin") ())
      with
      Serve.Daemon.publish_every = 0;
      jobs;
    }
  in
  match Serve.Daemon.create config with
  | Error e -> failwith e
  | Ok t ->
      let stop = Atomic.make false in
      let up = Atomic.make false in
      let daemon =
        Domain.spawn (fun () ->
            Serve.Daemon.run
              ~ready:(fun _ -> Atomic.set up true)
              ~stop:(fun () -> Atomic.get stop)
              t)
      in
      while not (Atomic.get up) do
        Domain.cpu_relax ()
      done;
      let finish () =
        Atomic.set stop true;
        (match Domain.join daemon with
        | Ok () -> ()
        | Error e -> prerr_endline ("serve bench: " ^ e));
        Serve.Daemon.shutdown t;
        Array.iter
          (fun f ->
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally:finish @@ fun () ->
      let conn =
        match Serve.Client.connect addr with
        | Ok c -> c
        | Error e -> failwith (Serve.Client.error_message e)
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close conn) @@ fun () ->
      (* One request over the persistent connection; round-trip µs. *)
      let request req =
        let t0 = Unix.gettimeofday () in
        (match Serve.Client.request conn req with
        | Ok (Serve.Protocol.Ok _) -> ()
        | Ok (Serve.Protocol.Err e) -> failwith ("daemon error: " ^ e)
        | Ok Serve.Protocol.Busy -> failwith "daemon busy: unexpected in bench"
        | Error e ->
            failwith ("serve bench transport: " ^ Serve.Client.error_message e));
        (Unix.gettimeofday () -. t0) *. 1e6
      in
      let timings = ref [] in
      let report name ~messages lats =
        let lats = Array.of_list lats in
        let total_us = Array.fold_left ( +. ) 0.0 lats in
        let mps = float_of_int messages /. (total_us /. 1e6) in
        Printf.printf
          "  %-24s %10.0f msgs/sec   p50 %7.0f us   p99 %7.0f us   (%d reqs)\n"
          name mps
          (Spamlab_stats.Summary.quantile lats 0.5)
          (Spamlab_stats.Summary.quantile lats 0.99)
          (Array.length lats);
        timings :=
          !timings @ [ (name, total_us /. 1e6 /. float_of_int messages) ]
      in
      let batch = 16 in
      let mbox_batches msgs =
        let n = Array.length msgs in
        List.init
          ((n + batch - 1) / batch)
          (fun i ->
            Spamlab_email.Mbox.print
              (Array.to_list (Array.sub msgs (i * batch) (min batch (n - (i * batch))))))
      in
      Printf.printf "%d messages, batches of %d, daemon jobs %d\n\n" size batch
        jobs;
      let pings =
        List.init 200 (fun _ ->
            request { Serve.Protocol.verb = Ping; body = ""; user = None })
      in
      report "serve-ping" ~messages:200 pings;
      let train_lats =
        List.concat_map
          (fun wanted ->
            let msgs =
              Array.of_list
                (List.filter_map
                   (fun (l, m) -> if l = wanted then Some m else None)
                   (Array.to_list labeled))
            in
            List.map
              (fun body ->
                request { Serve.Protocol.verb = Train wanted; body; user = None })
              (mbox_batches msgs))
          [ Label.Ham; Label.Spam ]
      in
      report "serve-train-b16" ~messages:size train_lats;
      ignore (request { Serve.Protocol.verb = Publish; body = ""; user = None });
      let classify_lats =
        List.map
          (fun body -> request { Serve.Protocol.verb = Classify; body; user = None })
          (mbox_batches (Array.map snd labeled))
      in
      report "serve-classify-b16" ~messages:size classify_lats;
      print_newline ();
      flush stdout;
      !timings

(* ------------------------------------------------------------------ *)
(* Tenant-store throughput: per-user train / classify (hot and cold) /
   eviction-pressure ops/sec with p50/p99 per-op latency, at tenant
   counts scaled from the nominal {1e3, 1e4, 1e5} tiers by
   scale/0.2 — the --timings ids stay scale-independent
   ("store-t1k-train", "store-t100k-classify-cold", ...).  A
   single-tenant baseline anchors the hot-path acceptance bound
   (hot-tenant classify within 1.25x of it). *)

let run_store lab ~jobs =
  let module Store = Spamlab_store.Store in
  let module Classify = Spamlab_spambayes.Classify in
  let module Options = Spamlab_spambayes.Options in
  let module Dataset = Spamlab_corpus.Dataset in
  Printf.printf "%s\ntenant store ops/sec (sharded backend)\n%s\n" hrule hrule;
  let scale = Lab.scale lab in
  let tier nominal = max 200 (int_of_float (float_of_int nominal *. scale /. 0.2)) in
  let examples =
    Lab.corpus lab ~name:"store-bench"
      ~size:(max 128 (int_of_float (512.0 *. scale /. 0.2)))
      ~spam_fraction:0.5
  in
  let nex = Array.length examples in
  let options = Options.default in
  let pool = Lab.pool lab in
  let timings = ref [] in
  let report name ~ops ~wall_s lats =
    let ops_s = float_of_int ops /. wall_s in
    Printf.printf
      "  %-26s %10.0f ops/sec   p50 %7.1f us   p99 %7.1f us   (%d ops)\n" name
      ops_s
      (Spamlab_stats.Summary.quantile lats 0.5)
      (Spamlab_stats.Summary.quantile lats 0.99)
      ops;
    timings := !timings @ [ (name, wall_s /. float_of_int ops) ];
    ops_s
  in
  let chunks n size =
    Array.init ((n + size - 1) / size) (fun k ->
        (k * size, min size (n - (k * size))))
  in
  (* Run [f i] for every user index, fanned over the pool; returns
     (wall seconds, per-op latencies in us, flattened in index order). *)
  let fan n f =
    let t0 = Unix.gettimeofday () in
    let per_chunk =
      Spamlab_parallel.Pool.map_array pool
        (fun (start, len) ->
          Array.init len (fun j ->
              let t = Unix.gettimeofday () in
              f (start + j);
              (Unix.gettimeofday () -. t) *. 1e6))
        (chunks n 256)
    in
    let wall = Unix.gettimeofday () -. t0 in
    (wall, Array.concat (Array.to_list per_chunk))
  in
  let user i = Printf.sprintf "user-%06d" i in
  let train_user st i =
    for k = 0 to 1 do
      let ex = examples.(((2 * i) + k) mod nex) in
      Store.train_ids st ~user:(user i) ex.Dataset.label ex.Dataset.ids
    done
  in
  let classify_user st i =
    let ex = examples.(i mod nex) in
    Store.with_user st (user i) (fun db ->
        ignore
          (Classify.score_engine (Classify.engine options db) ex.Dataset.ids))
  in
  let with_store ~dir ?(cache = Store.default_config.cache) f =
    match
      Store.open_store
        { Store.default_config with Store.backend = `Sharded dir; cache }
    with
    | Error e -> failwith ("store bench: " ^ e)
    | Ok st -> Fun.protect ~finally:(fun () -> Store.close st) @@ fun () -> f st
  in
  let tmp = Filename.temp_file "spamlab_bench" ".store" in
  Sys.remove tmp;
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:(fun () -> rm_rf tmp) @@ fun () ->
  (* Single-tenant baseline: one hot user classified repeatedly. *)
  let single_ops_s =
    with_store ~dir:tmp @@ fun st ->
    train_user st 0;
    ignore (classify_user st 0);
    let rounds = 2000 in
    let wall, lats = fan rounds (fun _ -> classify_user st 0) in
    report "store-single-classify" ~ops:rounds ~wall_s:wall lats
  in
  let tiers = [ ("t1k", 1_000); ("t10k", 10_000); ("t100k", 100_000) ] in
  List.iter
    (fun (tag, nominal) ->
      let n = tier nominal in
      rm_rf tmp;
      Printf.printf "\n%s: %d tenants, daemon-style 2 trains/user, jobs %d\n"
        tag n jobs;
      let id phase = Printf.sprintf "store-%s-%s" tag phase in
      with_store ~dir:tmp (fun st ->
          let wall, lats = fan n (train_user st) in
          ignore (report (id "train") ~ops:(2 * n) ~wall_s:wall lats);
          Store.commit st;
          (* Hot: a cache-resident working set, classified repeatedly. *)
          let h = min n 1000 in
          let rounds = max 1 (2000 / h) in
          ignore (fan h (classify_user st));
          let wall, lats =
            fan (h * rounds) (fun i -> classify_user st (i mod h))
          in
          let hot_ops_s = report (id "classify-hot") ~ops:(h * rounds) ~wall_s:wall lats in
          if hot_ops_s < single_ops_s /. 1.25 then
            Printf.printf
              "  WARNING: hot classify %.0f ops/sec is more than 1.25x below \
               single-tenant %.0f\n"
              hot_ops_s single_ops_s;
          (* Cold: every access re-materializes from shard files. *)
          Store.evict_all st;
          let s = min n 1000 in
          let stride = max 1 (n / s) in
          let wall, lats = fan s (fun i -> classify_user st (i * stride)) in
          ignore (report (id "classify-cold") ~ops:s ~wall_s:wall lats));
      (* Eviction pressure: reopen with a small cache and touch more
         users than it holds — every miss past capacity evicts. *)
      with_store ~dir:tmp ~cache:512 (fun st ->
          let t = min n 4096 in
          let wall, lats = fan t (fun i -> classify_user st (i mod n)) in
          ignore (report (id "evict") ~ops:t ~wall_s:wall lats);
          let s = Store.stats st in
          Printf.printf "  (evictions %d, misses %d, hits %d)\n"
            s.Store.evictions s.Store.misses s.Store.hits))
    tiers;
  print_newline ();
  flush stdout;
  !timings

(* ------------------------------------------------------------------ *)
(* Classify scoring throughput: pre-interned id arrays -> verdicts,
   isolating the probability-lookup hot path the generation-stamped
   cache (PR 9) changed.  Paths: the immutable published snapshot
   scored through a shared Prob_cache vs the uncached reference
   (fanned over the pool at --jobs), the private per-filter cache warm
   vs cold (generation bumped before every pass, forcing a full lazy
   refill), and the tenant-overlay engines (a never-trained tenant is
   pure shared-cache hits; a trained tenant's shifted totals force the
   uncached fallback).  All variants produce bit-identical results —
   the differential suite holds them equal; this target measures them.
   --timings ids: "classify-<path>" seconds per message. *)

let run_classify lab ~jobs =
  let module SB = Spamlab_spambayes in
  let module Classify = SB.Classify in
  let module Token_db = SB.Token_db in
  let module Prob_cache = SB.Prob_cache in
  let module Dataset = Spamlab_corpus.Dataset in
  let module Store = Spamlab_store.Store in
  Printf.printf "%s\nclassify scoring ops/sec (probability cache)\n%s\n" hrule
    hrule;
  let scale = Lab.scale lab in
  let train_size = max 400 (int_of_float (4_000.0 *. scale)) in
  let eval_size = max 200 (int_of_float (2_000.0 *. scale)) in
  let train =
    Lab.corpus lab ~name:"classify-bench/train" ~size:train_size
      ~spam_fraction:0.5
  in
  let eval_set =
    Lab.corpus lab ~name:"classify-bench/eval" ~size:eval_size
      ~spam_fraction:0.5
  in
  let filter = Poison.base_filter (Lab.tokenizer lab) train in
  SB.Intern.freeze ();
  let options = SB.Filter.options filter in
  let snapshot = Token_db.copy (SB.Filter.db filter) in
  let pool = Lab.pool lab in
  let n = Array.length eval_set in
  Printf.printf
    "%d train msgs, %d eval msgs (pre-interned ids), pool jobs %d%s\n\n"
    train_size n jobs
    (if Prob_cache.disabled then "  [SPAMLAB_NO_PROB_CACHE=1]" else "");
  let timings = ref [] in
  let report name ~ops ~wall_s lats =
    let ops_s = float_of_int ops /. wall_s in
    Printf.printf
      "  %-28s %10.0f ops/sec   p50 %7.2f us   p99 %7.2f us   (%d ops)\n" name
      ops_s
      (Spamlab_stats.Summary.quantile lats 0.5)
      (Spamlab_stats.Summary.quantile lats 0.99)
      ops;
    timings := !timings @ [ (name, wall_s /. float_of_int ops) ];
    ops_s
  in
  let chunks =
    Array.init ((n + 63) / 64) (fun k -> (k * 64, min 64 (n - (k * 64))))
  in
  (* One timed pass over the eval set: [score i] classifies message i;
     returns per-message latencies (us).  [fanned] spreads chunks over
     the pool (engines passed here must be domain-safe). *)
  let pass ~fanned score =
    let one (start, len) =
      Array.init len (fun j ->
          let t = Unix.gettimeofday () in
          score (start + j);
          (Unix.gettimeofday () -. t) *. 1e6)
    in
    if fanned then
      Array.concat
        (Array.to_list (Spamlab_parallel.Pool.map_array pool one chunks))
    else Array.concat (Array.to_list (Array.map one chunks))
  in
  (* Warm once, then repeat whole passes for >= 0.4 s.  [prep] runs
     before each timed pass, outside the clock (the cold-refill path
     uses it to invalidate the cache). *)
  let measure name ~fanned ?(prep = fun () -> ()) score =
    prep ();
    ignore (pass ~fanned score);
    let lats = ref [] in
    let passes = ref 0 in
    let t0 = Unix.gettimeofday () in
    let wall = ref 0.0 in
    while !wall < 0.4 do
      prep ();
      let t1 = Unix.gettimeofday () in
      lats := pass ~fanned score :: !lats;
      let t2 = Unix.gettimeofday () in
      wall := !wall +. (t2 -. t1);
      incr passes;
      ignore t0
    done;
    report name ~ops:(n * !passes) ~wall_s:!wall
      (Array.concat (List.rev !lats))
  in
  (* Hot published snapshot: one shared single-generation cache across
     the pool fan-out (the daemon CLASSIFY shape), the uncached engine
     (same scratch-array selection, probabilities recomputed — the
     kill-switch/fault-fallback path), and the pre-cache list scoring
     code the test oracle keeps ([score_ids_reference]) as the
     baseline.  The headline speedup is cached vs baseline: what the
     cache and the scratch-array selection buy over the list pipeline
     on the same workload. *)
  let shared_cache = Prob_cache.create ~shared:true options snapshot in
  let cached_engine = Classify.engine_cached shared_cache in
  let uncached_engine = Classify.engine options snapshot in
  let hot =
    measure "classify-hot-cached" ~fanned:true (fun i ->
        ignore (Classify.score_engine cached_engine eval_set.(i).Dataset.ids))
  in
  let uncached =
    measure "classify-hot-uncached" ~fanned:true (fun i ->
        ignore (Classify.score_engine uncached_engine eval_set.(i).Dataset.ids))
  in
  let base =
    measure "classify-hot-baseline" ~fanned:true (fun i ->
        ignore
          (Spamlab_oracle.Scoring.score_ids_reference options snapshot
             eval_set.(i).Dataset.ids))
  in
  Printf.printf "  %-28s %10.2fx\n" "cached speedup vs baseline" (hot /. base);
  Printf.printf "  %-28s %10.2fx\n" "cached speedup vs uncached"
    (hot /. uncached);
  (* Private per-filter cache: warm steady state, then cold refill —
     train+untrain before every pass leaves the counts identical but
     bumps the generation twice, so each pass re-fills every slot it
     touches.  Single-domain, like the cache. *)
  ignore
    (measure "classify-warm-private" ~fanned:false (fun i ->
         ignore (SB.Filter.classify_ids filter eval_set.(i).Dataset.ids)));
  let bump_ids = train.(0).Dataset.ids in
  ignore
    (measure "classify-cold-refill" ~fanned:false
       ~prep:(fun () ->
         SB.Token_db.train_ids (SB.Filter.db filter) SB.Label.Ham bump_ids;
         SB.Token_db.untrain_ids (SB.Filter.db filter) SB.Label.Ham bump_ids)
       (fun i -> ignore (SB.Filter.classify_ids filter eval_set.(i).Dataset.ids)));
  (* Tenant overlays over a sharded store whose prior is the snapshot:
     a never-trained tenant reads entirely through the store's shared
     prior cache; a trained tenant's message totals have shifted, so
     its engine recomputes from the overlay (the byte-identity
     contract).  Sequential — per-op engine + lock costs, not shard
     parallelism (bench store covers that). *)
  let dir = Filename.temp_file "spamlab_bench" ".classify" in
  Sys.remove dir;
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (Sys.readdir d);
      try Unix.rmdir d with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match
     Store.open_store ~options ~prior:snapshot
       { Store.default_config with Store.backend = `Sharded dir }
   with
  | Error e -> failwith ("classify bench: " ^ e)
  | Ok st ->
      Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
      Store.train_ids st ~user:"tenant-trained" train.(0).Dataset.label
        train.(0).Dataset.ids;
      Store.train_ids st ~user:"tenant-trained" train.(1).Dataset.label
        train.(1).Dataset.ids;
      let tenant name user =
        ignore
          (measure name ~fanned:false (fun i ->
               Store.with_user_engine st user (fun e ->
                   ignore
                     (Classify.score_engine e eval_set.(i).Dataset.ids))))
      in
      tenant "classify-tenant-fresh" "tenant-fresh";
      tenant "classify-tenant-trained" "tenant-trained");
  print_newline ();
  flush stdout;
  !timings

(* ------------------------------------------------------------------ *)
(* Daemon start-up, split into its stages: the db load
   ([Token_db.of_string]), the first [Intern.freeze] after it, and
   launch-to-first-PING of [spamlab serve] over the same file.  The db
   is generated and scale-independent: [load_rows] distinct word-like
   tokens, about as many rows as perfbench's published db, in canonical
   v3 bytes.  Each repetition of the first two stages runs in a fresh
   child process ([main.exe load-child REP]), so it interns into an
   empty table, as a daemon starts.  --timings ids: "load-parse",
   "load-freeze", "load-serve-ping", seconds (median of [load_reps]). *)

let load_rows = 140_000
let load_reps = 3

let synthetic_db ~rep =
  let module Token_db = Spamlab_spambayes.Token_db in
  let rng = Random.State.make [| 27; rep |] in
  let prefixes = [| ""; ""; ""; "subject:"; "from:"; "url:"; "skip:a 10 " |] in
  let word () =
    let len = 2 + Random.State.int rng 10 in
    String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26))
  in
  let seen = Hashtbl.create (2 * load_rows) in
  while Hashtbl.length seen < load_rows do
    let tok =
      Printf.sprintf "%s%s%d"
        prefixes.(Random.State.int rng (Array.length prefixes))
        (word ()) rep
    in
    Hashtbl.replace seen tok ()
  done;
  let toks = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort String.compare toks;
  let nspam = 1_000 and nham = 1_000 in
  let b = Buffer.create (16 * load_rows) in
  Printf.bprintf b "spamlab-token-db 3 %d %d\n" nspam nham;
  Array.iter
    (fun tok ->
      let spam = Random.State.int rng 20 in
      Token_db.add_escaped b tok;
      Printf.bprintf b "\t%d\t%d\n" spam
        (if spam = 0 then 1 + Random.State.int rng 20 else Random.State.int rng 20))
    toks;
  let crc = Token_db.crc_finish (Token_db.crc_feed_buffer Token_db.crc_init b) in
  Printf.bprintf b "#spamlab-db-footer crc32=%08x entries=%d\n" crc load_rows;
  Buffer.contents b

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Spawn [spamlab serve] over [db] and time it until it answers PING;
   then stop it with SIGTERM. *)
let serve_ping ~spamlab ~dir ~db =
  let module Serve = Spamlab_serve in
  let sock = Filename.concat dir "load.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process spamlab
      [| spamlab; "serve"; "--db"; db; "--socket"; sock; "--jobs"; "1";
         "--publish-every"; "0" |]
      Unix.stdin null null
  in
  Unix.close null;
  let ping = { Serve.Protocol.verb = Ping; body = ""; user = None } in
  let rec poll () =
    if Unix.gettimeofday () -. t0 > 60.0 then failwith "load bench: no PING answer"
    else
      match Serve.Client.connect (Serve.Daemon.Unix_sock sock) with
      | Error _ ->
          Unix.sleepf 0.0005;
          poll ()
      | Ok conn ->
          let r = Serve.Client.request conn ping in
          Serve.Client.close conn;
          (match r with
          | Ok (Serve.Protocol.Ok _) -> ()
          | _ -> failwith "load bench: bad PING answer");
          Unix.gettimeofday () -. t0
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid))
    poll

(* [main.exe load-child REP]: load repetition [rep]'s db into this
   fresh process's empty intern table and freeze it; print the two
   times, in seconds, on one line. *)
let load_child ~rep =
  let module SB = Spamlab_spambayes in
  let data = synthetic_db ~rep in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  (match SB.Token_db.of_string data with
  | Ok _ -> ()
  | Error e -> failwith ("load bench: " ^ e));
  let t1 = Unix.gettimeofday () in
  SB.Intern.freeze ();
  let t2 = Unix.gettimeofday () in
  Printf.printf "%.9f %.9f\n" (t1 -. t0) (t2 -. t1)

let load_in_child ~rep =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "load-child"; string_of_int rep |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let line =
    let ic = Unix.in_channel_of_descr rd in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  (match snd (Unix.waitpid [] pid) with
  | WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "load bench: load-child %d failed" rep));
  Scanf.sscanf line "%f %f" (fun parse freeze -> (parse, freeze))

let run_load () =
  Printf.printf "%s\ndaemon start-up stages (generated db)\n%s\n" hrule hrule;
  let spamlab =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "spamlab.exe")
  in
  if not (Sys.file_exists spamlab) then
    failwith ("load bench: no daemon executable at " ^ spamlab);
  let loads = List.init load_reps (fun i -> load_in_child ~rep:(i + 1)) in
  let first = synthetic_db ~rep:1 in
  let dir = Filename.temp_file "spamlab_bench" ".load" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let db = Filename.concat dir "load.db" in
  let ping =
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin db (fun oc -> output_string oc first);
        List.init load_reps (fun _ -> serve_ping ~spamlab ~dir ~db))
  in
  Printf.printf "%d rows, %d bytes, median of %d\n\n" load_rows
    (String.length first) load_reps;
  let timings =
    [ ("load-parse", median (List.map fst loads)); ("load-freeze", median (List.map snd loads));
      ("load-serve-ping", median ping) ]
  in
  List.iter (fun (id, s) -> Printf.printf "  %-18s %9.1f ms\n" id (s *. 1e3)) timings;
  print_newline ();
  flush stdout;
  timings

(* ------------------------------------------------------------------ *)
(* Bench trajectory: aggregate every checked-in BENCH_PR*.json into one
   markdown table of headline throughput numbers per PR.  The files
   are heterogeneous (each PR recorded what it changed), so parsing is
   line-tolerant: "speedup" objects are flattened to dotted keys, and
   "results" arrays contribute their hot-path classify rows at the
   highest recorded jobs value.  Output is a pure function of the
   checked-in files — the README perf section embeds it. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* Parse the number starting at the first digit/sign at or after [i]. *)
let number_after s i =
  let n = String.length s in
  let rec start i =
    if i >= n then None
    else
      match s.[i] with
      | '0' .. '9' | '-' -> Some i
      | ' ' | ':' | '\t' -> start (i + 1)
      | _ -> None
  in
  match start i with
  | None -> None
  | Some b ->
      let rec stop j =
        if j >= n then j
        else
          match s.[j] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> stop (j + 1)
          | _ -> j
      in
      float_of_string_opt (String.sub s b (stop b - b))

let string_after s i =
  match find_sub s "\"" i with
  | None -> None
  | Some b -> (
      match String.index_from_opt s (b + 1) '"' with
      | None -> None
      | Some e -> Some (String.sub s (b + 1) (e - b - 1)))

(* All ("id", jobs, ops_per_sec) triples of a results-array file. *)
let scan_results data =
  let rec go acc from =
    match find_sub data "\"id\"" from with
    | None -> List.rev acc
    | Some i -> (
        let stop =
          match String.index_from_opt data i '}' with
          | Some j -> j
          | None -> String.length data
        in
        let field key =
          match find_sub data key (i + 4) with
          | Some k when k < stop -> number_after data (k + String.length key)
          | _ -> None
        in
        match (string_after data (i + 4), field "\"ops_per_sec\"") with
        | Some id, Some ops ->
            let jobs =
              match field "\"jobs\"" with Some j -> int_of_float j | None -> 1
            in
            go ((id, jobs, ops) :: acc) (stop + 1)
        | _ -> go acc (stop + 1))
  in
  go [] 0

(* Flatten the "speedup" object (scalar and one-level-nested pairs)
   into dotted keys. *)
let scan_speedup data =
  match find_sub data "\"speedup\"" 0 with
  | None -> []
  | Some i -> (
      match String.index_from_opt data i '{' with
      | None -> []
      | Some start ->
          let n = String.length data in
          let acc = ref [] in
          let prefix = ref "" in
          let rec go i depth =
            if i >= n || (depth = 0 && i > start) then ()
            else
              match data.[i] with
              | '{' -> go (i + 1) (depth + 1)
              | '}' ->
                  if depth = 2 then prefix := "";
                  go (i + 1) (depth - 1)
              | '"' -> (
                  match string_after data i with
                  | None -> go (i + 1) depth
                  | Some key ->
                      let after = i + String.length key + 2 in
                      let rec skip j =
                        if j < n && (data.[j] = ' ' || data.[j] = ':') then
                          skip (j + 1)
                        else j
                      in
                      let v = skip after in
                      if v < n && data.[v] = '{' then begin
                        prefix := key ^ ".";
                        go v depth
                      end
                      else begin
                        (match number_after data after with
                        | Some f -> acc := (!prefix ^ key, f) :: !acc
                        | None -> ());
                        go after depth
                      end)
              | _ -> go (i + 1) depth
          in
          go start 0;
          List.rev !acc)

let run_trajectory () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f > 13
             && String.sub f 0 8 = "BENCH_PR"
             && Filename.check_suffix f ".json"
           then
             Option.map
               (fun pr -> (pr, f))
               (int_of_string_opt (String.sub f 8 (String.length f - 13)))
           else None)
    |> List.sort compare
  in
  if files = [] then prerr_endline "trajectory: no BENCH_PR*.json here"
  else begin
    Printf.printf "| PR | metric | value |\n|---:|--------|------:|\n";
    List.iter
      (fun (pr, file) ->
        let data =
          In_channel.with_open_bin file In_channel.input_all
        in
        List.iter
          (fun (key, v) ->
            Printf.printf "| %d | %s speedup | %.2fx |\n" pr key v)
          (scan_speedup data);
        let results = scan_results data in
        let maxj =
          List.fold_left (fun m (_, j, _) -> max m j) 1 results
        in
        List.iter
          (fun (id, jobs, ops) ->
            if jobs = maxj && find_sub id "hot" 0 <> None then
              Printf.printf "| %d | %s (jobs %d) | %.0f ops/sec |\n" pr id jobs
                ops)
          results;
        (* The cached-vs-baseline headline, when both sides are present
           (baseline = the verbatim pre-cache scoring code; fall back
           to the uncached engine for files that lack it). *)
        let at id' =
          List.find_map
            (fun (id, j, ops) -> if id = id' && j = maxj then Some ops else None)
            results
        in
        let denom =
          match at "classify-hot-baseline" with
          | Some _ as b -> b
          | None -> at "classify-hot-uncached"
        in
        match (at "classify-hot-cached", denom) with
        | Some c, Some b when b > 0.0 ->
            Printf.printf
              "| %d | hot-snapshot cached/baseline (jobs %d) | %.2fx |\n" pr
              maxj (c /. b)
        | _ -> ())
      files;
    flush stdout
  end

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks                                           *)

let perf_tests () =
  let open Bechamel in
  let lab = Lab.create ~seed:42 ~scale:0.05 () in
  let rng = Lab.rng lab "perf" in
  let config = Lab.config lab in
  let tokenizer = Lab.tokenizer lab in
  let message = Spamlab_corpus.Generator.ham config rng in
  let examples =
    Lab.corpus lab ~name:"perf/corpus" ~size:500 ~spam_fraction:0.5
  in
  let filter = Poison.base_filter tokenizer examples in
  let tokens = Spamlab_tokenizer.Tokenizer.unique_tokens tokenizer message in
  let aspell = Lab.aspell lab ~size:20_000 in
  (* The payload as strings: the groups below time its interning. *)
  let payload =
    Spamlab_tokenizer.Tokenizer.unique_tokens tokenizer
      Spamlab_core.Dictionary_attack.(email (make ~name:"perf" ~words:aspell))
  in
  let ids = Spamlab_spambayes.Intern.intern_array tokens in
  [
    Test.make ~name:"tokenize-message"
      (Staged.stage (fun () ->
           Spamlab_tokenizer.Tokenizer.unique_tokens tokenizer message));
    Test.make ~name:"classify-message"
      (Staged.stage (fun () ->
           Spamlab_spambayes.Filter.classify_ids filter
             (Spamlab_spambayes.Intern.intern_array tokens)));
    (* The same classification on pre-interned ids: the steady state of
       every experiment (Dataset.example carries ids), isolating what
       string hashing used to cost per message. *)
    Test.make ~name:"classify-preinterned-ids"
      (Staged.stage (fun () ->
           Spamlab_spambayes.Filter.classify_ids filter ids));
    (* All-hit interning of a dictionary-sized payload — the lock-free
       snapshot path that parallel workers take after [Intern.freeze]. *)
    Test.make ~name:"intern-lookup-20k-payload"
      (Staged.stage (fun () ->
           Spamlab_spambayes.Intern.intern_array payload));
    (* O(|delta|) copy-on-write snapshot; this was an O(|DB|) rebuild of
       the whole count table before the CoW representation. *)
    Test.make ~name:"filter-copy-cow"
      (Staged.stage (fun () -> Spamlab_spambayes.Filter.copy filter));
    Test.make ~name:"train-untrain-message"
      (Staged.stage (fun () ->
           Spamlab_spambayes.Filter.train_tokens filter
             Spamlab_spambayes.Label.Ham tokens;
           Spamlab_spambayes.Token_db.untrain_ids
             (Spamlab_spambayes.Filter.db filter)
             Spamlab_spambayes.Label.Ham
             (Spamlab_spambayes.Intern.intern_array tokens)));
    Test.make ~name:"generate-ham-email"
      (Staged.stage (fun () -> Spamlab_corpus.Generator.ham config rng));
    Test.make ~name:"poison-20k-dictionary-x100"
      (Staged.stage (fun () ->
           let copy = Spamlab_spambayes.Filter.copy filter in
           Spamlab_spambayes.Token_db.train_many_ids
             (Spamlab_spambayes.Filter.db copy)
             Spamlab_spambayes.Label.Spam
             (Spamlab_spambayes.Intern.intern_array payload)
             100));
    Test.make ~name:"fisher-indicator-150-clues"
      (let fs =
         Array.init 150 (fun i -> 0.01 +. (0.98 *. float_of_int i /. 149.0))
       in
       Staged.stage (fun () -> Spamlab_stats.Fisher.indicator fs 150));
    (* The fused message->ids ingest against the pre-PR 4 reference
       pipeline (token list, then sort_uniq-style dedup, then intern). *)
    Test.make_grouped ~name:"tokenize-to-ids"
      [
        Test.make ~name:"fused"
          (Staged.stage (fun () ->
               Spamlab_corpus.Dataset.tokenize_ids tokenizer message));
        Test.make ~name:"list-reference"
          (Staged.stage (fun () ->
               let tokens =
                 List.sort_uniq String.compare
                   (Spamlab_tokenizer.Tokenizer.tokenize tokenizer message)
               in
               Spamlab_spambayes.Intern.intern_array (Array.of_list tokens)));
      ];
  ]

(* The two perf claims of the multicore harness, measured rather than
   asserted: the domain pool against its own sequential path on a
   fold-shaped workload, and the incremental poisoning sweep against the
   naive copy-per-grid-point loop it replaced. *)
let harness_tests ~jobs () =
  let open Bechamel in
  let lab = Lab.create ~seed:42 ~scale:0.05 ~jobs:1 () in
  let tokenizer = Lab.tokenizer lab in
  let examples =
    Lab.corpus lab ~name:"perf-harness/corpus" ~size:300 ~spam_fraction:0.5
  in
  let folds = Spamlab_corpus.Dataset.kfold ~k:4 examples in
  let score_fold (train, test) =
    let base = Poison.base_filter tokenizer train in
    Array.length (Poison.score_examples base test)
  in
  let payload =
    Spamlab_tokenizer.Tokenizer.unique_tokens tokenizer
      Spamlab_core.Dictionary_attack.(
        email (make ~name:"perf" ~words:(Lab.aspell lab ~size:20_000)))
  in
  (* Both sweeps intern the payload inside the timed closure, as the
     attack's first training would. *)
  let payload_ids () = Spamlab_spambayes.Intern.intern_array payload in
  let fractions = [ 0.0; 0.001; 0.005; 0.01; 0.02; 0.05; 0.10 ] in
  let counts =
    List.map
      (fun fraction -> Poison.attack_count ~train_size:300 ~fraction)
      fractions
  in
  let base = Poison.base_filter tokenizer examples in
  let test = Array.sub examples 0 60 in
  let pool = Spamlab_parallel.Pool.create ~jobs in
  [
    Test.make_grouped ~name:"parallel-map-folds"
      [
        Test.make ~name:"sequential"
          (Staged.stage (fun () -> Array.map score_fold folds));
        Test.make
          ~name:(Printf.sprintf "pool-jobs-%d" jobs)
          (Staged.stage (fun () ->
               Spamlab_parallel.Pool.map_array pool score_fold folds));
      ];
    Test.make_grouped ~name:"poison-sweep-incremental-vs-copy"
      [
        Test.make ~name:"copy-per-point"
          (Staged.stage (fun () ->
               List.map
                 (fun count ->
                   Poison.score_examples
                     (Poison.poisoned base ~payload:(payload_ids ()) ~count)
                     test)
                 counts));
        Test.make ~name:"incremental"
          (Staged.stage (fun () ->
               Poison.sweep base ~payload:(payload_ids ()) ~counts test));
      ];
    (* Jobs-invariant parallel generation against the sequential path:
       both produce byte-identical corpora (per-index rng children). *)
    Test.make_grouped ~name:"corpus-generate-500"
      [
        Test.make ~name:"sequential"
          (Staged.stage (fun () ->
               Spamlab_corpus.Trec.generate (Lab.config lab)
                 (Lab.rng lab "bench-corpus") ~size:500 ~spam_fraction:0.5));
        Test.make
          ~name:(Printf.sprintf "pool-jobs-%d" jobs)
          (Staged.stage (fun () ->
               Spamlab_corpus.Trec.generate ~pool (Lab.config lab)
                 (Lab.rng lab "bench-corpus") ~size:500 ~spam_fraction:0.5));
      ];
  ]

let run_perf ~jobs () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  Printf.printf "%s\nbechamel micro-benchmarks\n%s\n" hrule hrule;
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"spamlab"
         (perf_tests () @ harness_tests ~jobs ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let print_instance label unit_name =
    match Hashtbl.find_opt merged label with
    | None -> ()
    | Some tbl ->
        Printf.printf "\n%-44s %s\n%s\n" "benchmark" unit_name
          (String.make 60 '-');
        let rows =
          Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        List.iter
          (fun (name, ols) ->
            match Analyze.OLS.estimates ols with
            | Some [ estimate ] ->
                Printf.printf "%-44s %14.1f\n" name estimate
            | Some _ | None -> Printf.printf "%-44s %14s\n" name "n/a")
          rows
  in
  print_instance (Measure.label Instance.monotonic_clock) "ns/run";
  print_instance (Measure.label Instance.minor_allocated) "minor words/run";
  print_newline ()

(* ------------------------------------------------------------------ *)

let main () =
  let cli = parse_args () in
  (match cli.trace with Some path -> Obs.start_trace ~path | None -> ());
  if cli.metrics then Obs.enable_metrics ();
  Printf.printf
    "spamlab bench harness | seed %d | scale %.2f of paper Table 1 | jobs %d\n\n"
    cli.seed cli.scale cli.jobs;
  let lab = Lab.create ~seed:cli.seed ~scale:cli.scale ~jobs:cli.jobs () in
  let timings = ref [] in
  List.iter
    (fun target ->
      if target = "perf" then run_perf ~jobs:cli.jobs ()
      else if target = "ingest" then
        timings := !timings @ run_ingest lab ~jobs:cli.jobs
      else if target = "serve" then
        timings := !timings @ run_serve lab ~jobs:cli.jobs
      else if target = "store" then
        timings := !timings @ run_store lab ~jobs:cli.jobs
      else if target = "classify" then
        timings := !timings @ run_classify lab ~jobs:cli.jobs
      else if target = "load" then timings := !timings @ run_load ()
      else if target = "trajectory" then run_trajectory ()
      else timings := !timings @ run_experiments lab target)
    cli.targets;
  Lab.shutdown lab;
  Obs.stop ();
  if cli.metrics then Obs.dump_metrics stderr;
  match cli.timings with
  | Some path ->
      write_timings path ~seed:cli.seed ~scale:cli.scale ~jobs:cli.jobs
        !timings
  | None -> ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "load-child"; rep ] -> load_child ~rep:(int_of_string rep)
  | _ -> main ()

(* spamlab's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--commit C]

   runs one workload and prints, as its last stdout line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 a
   separate run times each layer from this program and prints the
   per-layer metrics, stage shares and tracing overhead instead.  Every
   run prints every metric of its kind: the layers a workload does not
   run itself are timed at the same seed in a child process
   ([main.exe layers-child]), one per group of layers.
   [--workload all] runs every workload in turn, each in its own
   process, and exits non-zero if any output check failed.

   Build and run it through perfbench/run.py, which builds the daemon
   and this program from source first. *)

let workloads = [ "classify-bulk"; "train-poisoned" ]

(* The end-to-end metrics, as BENCHMARK.json declares them.  Each
   workload reads them off its own request. *)
let end_to_end = [ "setup_s"; "request_p50_ms"; "throughput_per_s"; "peak_rss_mb" ]

(* The per-layer metrics, as BENCHMARK.json declares them, by the group
   of layers that produces them and the workload that runs that group
   itself. *)
let layer_groups =
  [
    ( "classify",
      [ "classify-bulk" ],
      [
        "client.connect_us"; "io.ping_rtt_us"; "protocol.render_us_per_req";
        "protocol.recv_us_per_req"; "daemon.handle_us_per_req";
        "daemon.outside_handle_share"; "daemon.unattributed_share";
        "ingest.chunk_us_per_req"; "ingest.ids_us_per_msg"; "intern.size";
        "prob_cache.collect_us_per_msg"; "classify.score_us_per_msg";
        "classify.select_fisher_us_per_msg"; "prob_cache.hit_ratio";
      ] );
    ( "write",
      [ "train-poisoned" ],
      [
        "mbox.parse_us_per_msg"; "filter.features_us_per_msg";
        "filter.features_ms_per_attack"; "daemon.train_handle_us_per_req";
        "store.train_us_per_msg"; "store.tenant_score_us_per_msg"; "store.commit_ms";
        "store.compact_all_ms"; "store.journal_bytes_per_msg"; "store.compactions";
        "store.overlay_hit_ratio"; "filter.save_ms"; "token_db.copy_ms";
        "intern.freeze_ms"; "prob_cache.create_ms"; "publish.unattributed_share";
        "token_db.distinct_tokens";
      ] );
    ( "paper",
      [],
      [
        "trec.generate_s"; "lab.fig1_s"; "lab.roni_s"; "intern.size_before_roni";
        "intern.first_sighting"; "poison.sweep_s"; "roni.trial_ms";
        "eval.tokens_scored_per_s";
      ] );
  ]

let per_layer = List.concat_map (fun (_, _, names) -> names) layer_groups

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ "|all) --seed N --seconds S --trace 0|1 [--commit C]");
  exit 2

type cli = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let parse argv =
  let rec go c = function
    | [] -> c
    | "--workload" :: w :: rest -> go { c with workload = w } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some seed -> go { c with seed } rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { c with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { c with trace = v = "1" } rest
    | "--commit" :: v :: rest -> go { c with commit = v } rest
    | _ -> usage ()
  in
  let c =
    go { workload = ""; seed = 1; seconds = 10.0; trace = false; commit = "unknown" } argv
  in
  if c.workload <> "all" && not (List.mem c.workload workloads) then usage ();
  c

let build_dir = "_build/default"

let make_env ~seed ~seconds ~trace ~work =
  Proc.rm_rf work;
  Proc.mkdir_p work;
  {
    Serve.seed;
    seconds;
    trace;
    work;
    spamlab = Filename.concat build_dir "bin/spamlab.exe";
  }

(* [main.exe layers-child --group G --seed N --out F]: time one group
   of layers at seed N and write its metrics to F. *)
let layers_child ~group ~seed ~out =
  let work = Filename.concat ".perfbench" ("layers-" ^ group) in
  let env = make_env ~seed ~seconds:1.0 ~trace:true ~work in
  let r = Report.create () in
  (match group with
  | "classify" -> Serve.classify_profile env r
  | "write" -> Train.write_profile env r
  | "paper" -> Paper.profile env r
  | g -> failwith ("unknown layer group " ^ g));
  Proc.rm_rf work;
  List.iter prerr_endline r.lines;
  List.iter (fun e -> prerr_endline ("CHECK FAILED: " ^ e)) r.check_errors;
  Proc.write_file out (Report.metric_lines r);
  if r.check_errors <> [] then exit 1

(* Every group of layers the workload does not run itself, each in a
   fresh child process so its intern table and heap start as the
   workload's own would. *)
let other_layers c r ~work =
  List.iter
    (fun (group, native, _) ->
      if not (List.mem c.workload native) then begin
        let out = Filename.concat work ("layers-" ^ group ^ ".txt") in
        let pid =
          Proc.spawn ~prog:Sys.executable_name
            ~args:[ "layers-child"; "--group"; group; "--seed"; string_of_int c.seed;
                    "--out"; out ]
            ~stdout_path:(Filename.concat work ("layers-" ^ group ^ ".log"))
            ~stderr_path:(Filename.concat work ("layers-" ^ group ^ ".err"))
        in
        Proc.live := pid :: !Proc.live;
        let status = snd (Proc.waitpid_noeintr [] pid) in
        Proc.live := List.filter (( <> ) pid) !Proc.live;
        let err = Checks.read_file (Filename.concat work ("layers-" ^ group ^ ".err")) in
        match status with
        | WEXITED 0 ->
            Report.note r "  layers of group %s, timed in a child process:" group;
            List.iter (fun l -> if l <> "" then Report.note r "  %s" l)
              (String.split_on_char '\n' err);
            Report.absorb_metric_lines r (Checks.read_file out)
        | _ -> failwith (Printf.sprintf "layer group %s failed:\n%s" group err)
      end)
    layer_groups

let run_one c =
  let work = Filename.concat ".perfbench" c.workload in
  let env = make_env ~seed:c.seed ~seconds:c.seconds ~trace:c.trace ~work in
  let r = Report.create () in
  Report.provenance r "workload" c.workload;
  Report.provenance r "seed" (string_of_int c.seed);
  Report.provenance r "seconds" (Printf.sprintf "%g" c.seconds);
  Report.provenance r "trace" (if c.trace then "1" else "0");
  Report.provenance r "nproc" (string_of_int (Domain.recommended_domain_count ()));
  Report.provenance r "ocaml" Sys.ocaml_version;
  Report.provenance r "commit" c.commit;
  (match
     (match c.workload with
     | "classify-bulk" -> Serve.classify_bulk env r
     | _ -> Train.train_poisoned env r);
     if c.trace then other_layers c r ~work
   with
  | () -> ()
  | exception e ->
      Proc.stop_all ();
      Printf.eprintf "perfbench %s: %s\n%!" c.workload (Printexc.to_string e);
      exit 2);
  Proc.rm_rf work;
  let wanted = if c.trace then per_layer else end_to_end in
  let shown =
    { r with metrics = List.filter (fun (m : Report.metric) -> List.mem m.name wanted) r.metrics }
  in
  Report.print_human r ~workload:c.workload;
  print_endline (Report.provenance_json r);
  (match List.filter (fun n -> not (Report.has shown n)) wanted with
  | [] -> ()
  | missing ->
      Printf.eprintf "perfbench %s: no value for %s\n%!" c.workload
        (String.concat ", " missing);
      exit 2);
  print_endline (Report.json shown);
  if r.check_errors <> [] then exit 1

(* Every workload, each in a fresh process so no in-process state (the
   intern table, the corpus memo) carries from one to the next. *)
let run_all c =
  let failed =
    List.filter
      (fun w ->
        let args =
          [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int c.seed;
             "--seconds"; Printf.sprintf "%g" c.seconds; "--trace";
             (if c.trace then "1" else "0"); "--commit"; c.commit |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Proc.waitpid_noeintr [] pid) with
        | WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  if failed <> [] then begin
    Printf.printf "FAILED: %s\n" (String.concat " " failed);
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "layers-child" :: "--group" :: group :: "--seed" :: seed :: "--out" :: out :: [] ->
      layers_child ~group ~seed:(int_of_string seed) ~out
  | argv ->
      let c = parse argv in
      if c.workload = "all" then run_all c else run_one c

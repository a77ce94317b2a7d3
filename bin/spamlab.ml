(* spamlab — command-line laboratory for training-set poisoning attacks
   on statistical spam filters.

   Subcommands:
     corpus      generate a synthetic TREC-like corpus as mbox files
     train       train a SpamBayes filter from ham/spam mboxes
     classify    classify an RFC 2822 message with a trained filter
     tokenize    show the token stream a tokenizer extracts
     stats       characterize a corpus (lengths, vocabulary, overlap)
     attack      craft dictionary, focused or pseudospam attack emails
     evade       good-word evasion against a trained filter
     roni        RONI-screen a candidate training message
     thresholds  derive dynamic thresholds from a training corpus
     experiment  reproduce a table/figure from the paper
     db          inspect and verify trained filter databases
     serve       run the classification daemon on a unix/TCP socket
     client      talk to a running daemon (ping/stats/classify/...) *)

open Cmdliner
module Corpus = Spamlab_corpus
module Filter = Spamlab_spambayes.Filter
module Ingest = Spamlab_spambayes.Ingest
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Options = Spamlab_spambayes.Options
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Message = Spamlab_email.Message
module Mbox = Spamlab_email.Mbox
module Rng = Spamlab_stats.Rng
module Eval = Spamlab_eval
module Obs = Spamlab_obs.Obs
module Fault = Spamlab_fault
module Token_db = Spamlab_spambayes.Token_db
module Serve = Spamlab_serve

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info)

(* --------------------------------------------------------------- *)
(* Common arguments                                                 *)

let seed_arg =
  let doc = "World seed: every spamlab run is deterministic in this." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let tokenizer_arg =
  let doc = "Tokenizer variant: spambayes, bogofilter or spamassassin." in
  let parse s =
    match Tokenizer.find s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown tokenizer %S" s))
  in
  let print fmt t =
    let (module T : Tokenizer.S) = t in
    Format.pp_print_string fmt T.name
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tokenizer.spambayes
    & info [ "tokenizer" ] ~docv:"NAME" ~doc)

let ham_mbox_arg =
  let doc = "Path of the ham mbox." in
  Arg.(required & opt (some string) None & info [ "ham" ] ~docv:"FILE" ~doc)

let spam_mbox_arg =
  let doc = "Path of the spam mbox." in
  Arg.(required & opt (some string) None & info [ "spam" ] ~docv:"FILE" ~doc)

let db_arg =
  let doc = "Path of the trained filter database." in
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)

let fail fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

(* Graceful degradation: a missing file, an unwritable path, a dead
   socket or an injected fatal fault becomes one error line and a
   nonzero exit, never an exception backtrace. *)
let guard f =
  try f () with
  | Sys_error e -> fail "%s" e
  | Unix.Unix_error (e, fn, arg) ->
      fail "%s%s: %s" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e)
  | Fault.Injected _ as exn -> fail "%s" (Printexc.to_string exn)

(* Every leaf command is built through [guarded]: its term evaluates to
   a thunk and the guard is the only thing that runs it, so a new
   subcommand structurally cannot skip the degradation path. *)
let guarded info term = Cmd.v info Term.(ret (const guard $ term))

let jobs_arg =
  let doc =
    "Worker domains (default: SPAMLAB_JOBS if set, else the recommended \
     domain count). Results are identical at every jobs value."
  in
  let jobs_conv =
    Arg.conv
      ( (fun s ->
          match Spamlab_parallel.parse_jobs s with
          | Ok n -> Ok n
          | Error msg -> Error (`Msg msg)),
        Format.pp_print_int )
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let read_message_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Spamlab_email.Rfc2822.parse (In_channel.input_all ic))

(* Every command that reads a --ham/--spam mailbox pair ingests it as
   daemon TRAIN does: raw chunks straight to distinct ids, ignored
   headers suppressed ([Ingest.with_unique_ids_raw]), ham before spam,
   each in file order.  So `train` writes the db a daemon publishes
   after TRAINing the same mail, and `stats`, `roni` and `thresholds`
   read the tokens that db holds.  A malformed chunk is quarantined:
   skipped, counted and reported. *)
let quarantined_counter = Obs.counter "train.quarantined"

let read_mbox what path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error (what ^ " mbox: " ^ e)

(* [f label ids raw] per message: its distinct token ids and stream
   length. *)
let iter_labeled_mail ~ham ~spam tokenizer f =
  match (read_mbox "ham" ham, read_mbox "spam" spam) with
  | Error e, _ | _, Error e -> Error e
  | Ok ham_text, Ok spam_text ->
      let quarantined = ref 0 in
      let ingest label text =
        Array.iter
          (fun (off, len) ->
            match
              Ingest.with_unique_ids_raw tokenizer text ~off ~len
                (fun ids n raw -> f label (Array.sub ids 0 n) raw)
            with
            | Some () -> ()
            | None -> incr quarantined)
          (Mbox.chunks text)
      in
      ingest Label.Ham ham_text;
      ingest Label.Spam spam_text;
      if !quarantined > 0 then begin
        Obs.add quarantined_counter !quarantined;
        Logs.warn (fun m ->
            m "quarantined %d unparseable message(s); training on the rest"
              !quarantined)
      end;
      Ok ()

let load_labeled ~ham ~spam tokenizer =
  let examples = ref [] in
  iter_labeled_mail ~ham ~spam tokenizer (fun label ids raw_token_count ->
      examples := { Corpus.Dataset.label; ids; raw_token_count } :: !examples)
  |> Result.map (fun () -> Array.of_list (List.rev !examples))

(* --------------------------------------------------------------- *)
(* corpus                                                           *)

let corpus_cmd =
  let size =
    Arg.(value & opt int 2_000 & info [ "size" ] ~docv:"N" ~doc:"Messages to generate.")
  in
  let spam_fraction =
    Arg.(value & opt float 0.5 & info [ "spam-fraction" ] ~docv:"F" ~doc:"Spam prevalence.")
  in
  let run seed size spam_fraction ham spam () =
    setup_logs ();
    if spam_fraction < 0.0 || spam_fraction > 1.0 then
      fail "spam-fraction must lie in [0,1]"
    else begin
      let config = Corpus.Generator.default_config ~seed () in
      let corpus =
        Corpus.Trec.generate config (Rng.create seed) ~size
          ~spam_fraction
      in
      Corpus.Trec.to_mbox_files ~ham_path:ham ~spam_path:spam corpus;
      let nham, nspam = Corpus.Trec.counts corpus in
      Logs.info (fun m -> m "wrote %d ham to %s, %d spam to %s" nham ham nspam spam);
      `Ok ()
    end
  in
  guarded
    (Cmd.info "corpus" ~doc:"Generate a synthetic TREC-like corpus as two mbox files.")
    Term.(const run $ seed_arg $ size $ spam_fraction $ ham_mbox_arg $ spam_mbox_arg)

(* --------------------------------------------------------------- *)
(* train                                                            *)

let train_cmd =
  let run ham spam db tokenizer () =
    setup_logs ();
    let filter = Filter.create ~tokenizer () in
    match
      iter_labeled_mail ~ham ~spam tokenizer (fun label ids _raw ->
          Token_db.train_ids (Filter.db filter) label ids)
    with
    | Error e -> fail "%s" e
    | Ok () ->
        Filter.save_file filter db;
        let dbv = Filter.db filter in
        Logs.info (fun m ->
            m "trained on %d ham + %d spam; %d distinct tokens -> %s"
              (Spamlab_spambayes.Token_db.nham dbv)
              (Spamlab_spambayes.Token_db.nspam dbv)
              (Spamlab_spambayes.Token_db.distinct_tokens dbv)
              db);
        `Ok ()
  in
  guarded
    (Cmd.info "train" ~doc:"Train a SpamBayes filter from ham/spam mbox files.")
    Term.(const run $ ham_mbox_arg $ spam_mbox_arg $ db_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* classify                                                         *)

let classify_cmd =
  let message_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MESSAGE" ~doc:"RFC 2822 message file.")
  in
  let verbose =
    Arg.(value & flag & info [ "clues" ] ~doc:"Print the discriminator tokens.")
  in
  let run db message verbose tokenizer () =
    match Filter.load_file ~tokenizer db with
    | Error e -> fail "cannot load %s: %s" db e
    | Ok filter -> (
        match read_message_file message with
        | Error e -> fail "cannot parse %s: %s" message e
        | Ok msg ->
            let result = Filter.classify filter msg in
            Printf.printf "%s %.6f\n"
              (Label.verdict_to_string result.Classify.verdict)
              result.Classify.indicator;
            if verbose then
              List.iter
                (fun c ->
                  Printf.printf "  %-24s %.4f\n" c.Classify.token
                    c.Classify.score)
                result.Classify.clues;
            `Ok ())
  in
  guarded
    (Cmd.info "classify" ~doc:"Classify a message with a trained filter.")
    Term.(const run $ db_arg $ message_arg $ verbose $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* classify-mbox                                                    *)

let classify_mbox_cmd =
  let mbox_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MBOX" ~doc:"Raw mbox file of messages to classify.")
  in
  let run db mbox tokenizer () =
    setup_logs ();
    match Filter.load_file ~tokenizer db with
    | Error e -> fail "cannot load %s: %s" db e
    | Ok filter -> (
        match open_in mbox with
        | exception Sys_error e -> fail "%s" e
        | ic ->
            let text =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> In_channel.input_all ic)
            in
            let results = Filter.classify_mbox filter text in
            let malformed = ref 0 in
            Array.iteri
              (fun i result ->
                match result with
                | Some r ->
                    Printf.printf "%d %s %.6f\n" i
                      (Label.verdict_to_string r.Classify.verdict)
                      r.Classify.indicator
                | None ->
                    incr malformed;
                    Printf.printf "%d malformed\n" i)
              results;
            if !malformed > 0 then
              Logs.warn (fun m ->
                  m "%d malformed message(s) could not be classified" !malformed);
            `Ok ())
  in
  guarded
    (Cmd.info "classify-mbox"
       ~doc:
         "Batch-classify every message of a raw mbox through the zero-copy \
          ingest path.")
    Term.(const run $ db_arg $ mbox_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* tokenize                                                         *)

let tokenize_cmd =
  let message_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MESSAGE" ~doc:"RFC 2822 message file.")
  in
  let run message tokenizer () =
    match read_message_file message with
    | Error e -> fail "cannot parse %s: %s" message e
    | Ok msg ->
        Array.iter print_endline (Tokenizer.unique_tokens tokenizer msg);
        `Ok ()
  in
  guarded
    (Cmd.info "tokenize" ~doc:"Print the distinct tokens of a message.")
    Term.(const run $ message_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* attack                                                           *)

let scale_arg =
  let doc = "Scale of the simulated world relative to the paper's Table 1." in
  Arg.(value & opt float 0.2 & info [ "scale" ] ~docv:"S" ~doc)

let attack_dictionary_cmd =
  let variant =
    Arg.(
      value
      & opt (enum [ ("aspell", `Aspell); ("usenet", `Usenet); ("optimal", `Optimal) ]) `Usenet
      & info [ "variant" ] ~docv:"V" ~doc:"Word source: aspell, usenet or optimal.")
  in
  let words =
    Arg.(value & opt int 25_000 & info [ "words" ] ~docv:"N" ~doc:"Word list size (aspell/usenet).")
  in
  let count =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"N" ~doc:"Attack emails to emit.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output mbox.")
  in
  let run seed scale variant words count out () =
    setup_logs ();
    let lab = Eval.Lab.create ~seed ~scale () in
    let word_list =
      match variant with
      | `Aspell -> Eval.Lab.aspell lab ~size:words
      | `Usenet -> Eval.Lab.usenet_top lab ~size:words
      | `Optimal -> Eval.Lab.optimal_words lab
    in
    let name =
      match variant with
      | `Aspell -> "aspell"
      | `Usenet -> "usenet"
      | `Optimal -> "optimal"
    in
    let attack = Spamlab_core.Dictionary_attack.make ~name ~words:word_list in
    Mbox.write_file out (Spamlab_core.Dictionary_attack.emails attack ~count);
    Logs.info (fun m ->
        m "wrote %d %s attack emails (%d words each) to %s" count name
          (Spamlab_core.Dictionary_attack.word_count attack)
          out);
    `Ok ()
  in
  guarded
    (Cmd.info "dictionary"
       ~doc:"Craft dictionary-attack emails (Causative Availability Indiscriminate).")
    Term.(const run $ seed_arg $ scale_arg $ variant $ words $ count $ out)

let attack_focused_cmd =
  let target_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "target" ] ~docv:"FILE" ~doc:"The email the attacker wants blocked.")
  in
  let p_arg =
    Arg.(
      value & opt float 0.5
      & info [ "guess-p"; "p" ] ~docv:"P" ~doc:"Per-token guess probability.")
  in
  let count =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Attack emails to emit.")
  in
  let headers_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "headers" ] ~docv:"MBOX" ~doc:"Spam mbox whose headers the attack emails wear.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output mbox.")
  in
  let run seed target p count headers out () =
    setup_logs ();
    match (read_message_file target, Mbox.read_file headers) with
    | Error e, _ -> fail "cannot parse target: %s" e
    | _, Error e -> fail "cannot read header mbox: %s" e
    | Ok target_msg, Ok header_messages ->
        if header_messages = [] then fail "header mbox is empty"
        else begin
          let header_pool =
            Array.of_list (List.map Message.headers header_messages)
          in
          let plan =
            Spamlab_core.Focused_attack.craft (Rng.create seed)
              ~target:target_msg ~p ~count ~header_pool
          in
          Mbox.write_file out plan.Spamlab_core.Focused_attack.emails;
          Logs.info (fun m ->
              m "guessed %d/%d target words; wrote %d attack emails to %s"
                (List.length plan.Spamlab_core.Focused_attack.guessed)
                (List.length
                   (Spamlab_core.Focused_attack.target_words target_msg))
                count out);
          `Ok ()
        end
  in
  guarded
    (Cmd.info "focused"
       ~doc:"Craft a focused attack against a specific email (Causative Availability Targeted).")
    Term.(const run $ seed_arg $ target_arg $ p_arg $ count $ headers_arg $ out)

let attack_pseudospam_cmd =
  let campaign_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "campaign" ] ~docv:"FILE"
          ~doc:"A sample of the future spam campaign (RFC 2822); its body \
                words are the vocabulary to whitewash.")
  in
  let camouflage_fraction_arg =
    Arg.(
      value & opt float 0.5
      & info [ "camouflage-fraction" ] ~docv:"F"
          ~doc:"Fraction of each attack email that is innocent filler.")
  in
  let count =
    Arg.(value & opt int 20 & info [ "count" ] ~docv:"N" ~doc:"Attack emails to emit.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output mbox.")
  in
  let run seed scale campaign camouflage_fraction count out () =
    setup_logs ();
    match read_message_file campaign with
    | Error e -> fail "cannot parse campaign sample: %s" e
    | Ok sample ->
        let campaign_words =
          Array.of_list
            (Spamlab_core.Focused_attack.target_words sample)
        in
        if Array.length campaign_words = 0 then
          fail "campaign sample has no usable words"
        else begin
          let lab = Eval.Lab.create ~seed ~scale () in
          let camouflage =
            (Eval.Lab.config lab).Corpus.Generator.vocabulary
              .Corpus.Vocabulary.shared
          in
          let plan =
            Spamlab_core.Pseudospam_attack.craft (Rng.create seed)
              ~campaign:campaign_words ~camouflage
              ~camouflage_fraction ~count
          in
          Mbox.write_file out plan.Spamlab_core.Pseudospam_attack.emails;
          Logs.info (fun m ->
              m "whitewashing %d campaign words with %d camouflage words; \
                 wrote %d emails to %s (train them as HAM to attack)"
                (List.length plan.Spamlab_core.Pseudospam_attack.campaign_words)
                (List.length plan.Spamlab_core.Pseudospam_attack.camouflage_words)
                count out);
          `Ok ()
        end
  in
  guarded
    (Cmd.info "pseudospam"
       ~doc:"Craft ham-labeled pseudospam emails that whitewash a future \
             campaign (Causative Integrity).")
    Term.(
      const run $ seed_arg $ scale_arg $ campaign_arg $ camouflage_fraction_arg
      $ count $ out)

let attack_cmd =
  Cmd.group
    (Cmd.info "attack" ~doc:"Craft poisoning attack emails.")
    [ attack_dictionary_cmd; attack_focused_cmd; attack_pseudospam_cmd ]

(* --------------------------------------------------------------- *)
(* evade                                                            *)

let evade_cmd =
  let message_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MESSAGE" ~doc:"Spam message to smuggle through (RFC 2822).")
  in
  let max_words_arg =
    Arg.(value & opt int 100 & info [ "max-words" ] ~docv:"N" ~doc:"Good-word budget.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the padded message here.")
  in
  let run db message max_words out tokenizer () =
    match Filter.load_file ~tokenizer db with
    | Error e -> fail "cannot load %s: %s" db e
    | Ok filter -> (
        match read_message_file message with
        | Error e -> fail "cannot parse %s: %s" message e
        | Ok msg ->
            let good_words =
              Spamlab_core.Good_word_attack.hammiest_tokens filter ~limit:500
            in
            let result =
              Spamlab_core.Good_word_attack.evade filter msg ~good_words
                ~max_words
            in
            Printf.printf "%s %.6f (added %d good words)\n"
              (Label.verdict_to_string result.Spamlab_core.Good_word_attack.verdict)
              result.Spamlab_core.Good_word_attack.score
              result.Spamlab_core.Good_word_attack.words_added;
            (match out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                output_string oc
                  (Spamlab_email.Rfc2822.print
                     result.Spamlab_core.Good_word_attack.padded);
                close_out oc);
            `Ok ())
  in
  guarded
    (Cmd.info "evade"
       ~doc:"Good-word evasion: pad a spam message with the filter's \
             hammiest tokens (Exploratory Integrity baseline).")
    Term.(const run $ db_arg $ message_arg $ max_words_arg $ out_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* roni                                                             *)

let roni_cmd =
  let candidate_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MESSAGE" ~doc:"Candidate training message (RFC 2822).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float Spamlab_core.Roni.default_config.Spamlab_core.Roni.threshold
      & info [ "threshold" ] ~docv:"T" ~doc:"Rejection threshold on mean ham impact.")
  in
  let run seed ham spam candidate threshold tokenizer () =
    setup_logs ();
    match (load_labeled ~ham ~spam tokenizer, read_message_file candidate) with
    | Error e, _ -> fail "%s" e
    | _, Error e -> fail "cannot parse candidate: %s" e
    | Ok pool, Ok msg ->
        let candidate = fst (Corpus.Dataset.tokenize_ids tokenizer msg) in
        let config =
          { Spamlab_core.Roni.default_config with Spamlab_core.Roni.threshold }
        in
        let a =
          Spamlab_core.Roni.assess ~config (Rng.create seed) ~pool ~candidate
        in
        Printf.printf "mean ham impact: %.2f (threshold %.2f)\n"
          a.Spamlab_core.Roni.mean_ham_impact threshold;
        Printf.printf "verdict: %s\n"
          (if a.Spamlab_core.Roni.rejected then "REJECT (do not train)"
           else "admit");
        `Ok ()
  in
  guarded
    (Cmd.info "roni"
       ~doc:"Reject-On-Negative-Impact screening of a candidate training message.")
    Term.(
      const run $ seed_arg $ ham_mbox_arg $ spam_mbox_arg $ candidate_arg
      $ threshold_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* thresholds                                                       *)

let thresholds_cmd =
  let quantile_arg =
    Arg.(value & opt float 0.05 & info [ "quantile" ] ~docv:"Q" ~doc:"Utility quantile (0.05 or 0.10).")
  in
  let run seed ham spam quantile tokenizer () =
    setup_logs ();
    match load_labeled ~ham ~spam tokenizer with
    | Error e -> fail "%s" e
    | Ok examples ->
        let theta0, theta1 =
          Spamlab_core.Dynamic_threshold.thresholds
            ~config:{ Spamlab_core.Dynamic_threshold.quantile }
            (Rng.create seed) examples
        in
        Printf.printf "theta0 %.6f\ntheta1 %.6f\n" theta0 theta1;
        `Ok ()
  in
  guarded
    (Cmd.info "thresholds"
       ~doc:"Derive dynamic ham/spam cutoffs from a training corpus.")
    Term.(
      const run $ seed_arg $ ham_mbox_arg $ spam_mbox_arg $ quantile_arg
      $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* stats                                                            *)

let stats_cmd =
  let run ham spam tokenizer () =
    setup_logs ();
    match load_labeled ~ham ~spam tokenizer with
    | Error e -> fail "%s" e
    | Ok examples ->
        print_string
          (Corpus.Corpus_stats.render (Corpus.Corpus_stats.measure examples));
        `Ok ()
  in
  guarded
    (Cmd.info "stats"
       ~doc:"Characterize a corpus: lengths, vocabulary growth, singleton \
             tail, class overlap.")
    Term.(const run $ ham_mbox_arg $ spam_mbox_arg $ tokenizer_arg)

(* --------------------------------------------------------------- *)
(* experiment                                                       *)

let metrics_arg =
  let doc =
    "Print aggregate counters and span timings to stderr after the run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let experiment_cmd =
  let id_arg =
    let ids = String.concat ", " Eval.Registry.ids in
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:("Experiment id: " ^ ids ^ ", or 'all'."))
  in
  let trace_arg =
    let doc =
      "Write a JSONL execution trace (spans and counters) to $(docv). \
       Experiment output on stdout is unchanged."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let fault_spec_arg =
    let doc =
      "Deterministic fault injection spec (also read from SPAMLAB_FAULTS): \
       comma-separated $(i,site:kind@occ+occ...) or \
       $(i,site:kind~prob) clauses, e.g. 'pool.task:transient@3+97'. \
       Kinds: transient, fatal, crash."
    in
    Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Record completed grid points to $(docv) (JSONL, appended and \
       flushed as the sweep progresses) so an interrupted run can be \
       resumed with $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Restore completed grid points from the $(b,--checkpoint) file \
       instead of recomputing them.  Output is byte-identical to an \
       uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let run seed scale jobs trace metrics fault_spec checkpoint resume id () =
    setup_logs ();
    let fault_configured =
      match fault_spec with
      | Some spec -> Fault.configure ~seed spec
      | None -> Fault.configure_env ~seed ()
    in
    let checkpoint_opened =
      match (checkpoint, resume) with
      | None, true -> Error "--resume requires --checkpoint FILE"
      | None, false -> Ok None
      | Some path, resume ->
          Result.map Option.some
            (Eval.Checkpoint.open_ ~path
               ~params:(Printf.sprintf "seed=%d scale=%h" seed scale)
               ~resume)
    in
    match (fault_configured, checkpoint_opened) with
    | Error e, _ -> fail "%s" e
    | _, Error e -> fail "%s" e
    | Ok (), Ok ck ->
        (match trace with Some path -> Obs.start_trace ~path | None -> ());
        if metrics then Obs.enable_metrics ();
        let lab = Eval.Lab.create ~seed ~scale ?jobs ?checkpoint:ck () in
        let finish result =
          Eval.Lab.shutdown lab;
          Option.iter Eval.Checkpoint.close ck;
          Obs.stop ();
          if metrics then Obs.dump_metrics stderr;
          result
        in
        (match
           match id with
           | "all" ->
               List.iter
                 (fun (id, report) ->
                   Printf.printf "==== %s ====\n%s\n" id report)
                 (Eval.Registry.run_all lab);
               `Ok ()
           | id -> (
               match Eval.Registry.find id with
               | None -> fail "unknown experiment %S" id
               | Some e ->
                   print_string (e.Eval.Registry.run lab);
                   `Ok ())
         with
        | result -> finish result
        | exception exn -> ignore (finish (`Ok ())); raise exn)
  in
  guarded
    (Cmd.info "experiment"
       ~doc:"Reproduce a table or figure from the paper's evaluation.")
    Term.(
      const run $ seed_arg $ scale_arg $ jobs_arg $ trace_arg $ metrics_arg
      $ fault_spec_arg $ checkpoint_arg $ resume_arg $ id_arg)

(* --------------------------------------------------------------- *)
(* tenants                                                          *)

let tenants_cmd =
  let users_arg =
    let doc =
      "Comma-separated tenant counts to sweep (each point runs on a fresh \
       store)."
    in
    Arg.(value & opt string "1000" & info [ "users" ] ~docv:"N,N,..." ~doc)
  in
  let communities_arg =
    Arg.(
      value & opt int 8
      & info [ "communities" ] ~docv:"K"
          ~doc:"Distinct community corpora tenants are drawn from.")
  in
  let poison_arg =
    Arg.(
      value & opt float 0.1
      & info [ "poison" ] ~docv:"F" ~doc:"Fraction of tenants attacked.")
  in
  let attack_count_arg =
    Arg.(
      value & opt int 4
      & info [ "attack-count" ] ~docv:"N"
          ~doc:"Attack emails trained into each poisoned tenant.")
  in
  let store_dir_arg =
    let doc =
      "Run tenants on the sharded on-disk store rooted here (one \
       users-N subdirectory per sweep point); default is the in-memory \
       backend."
    in
    Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Record completed user chunks for --resume.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Restore completed user chunks from the --checkpoint file.")
  in
  let fault_spec_arg =
    let doc =
      "Deterministic fault injection spec (also read from SPAMLAB_FAULTS); \
       tenants-relevant sites: checkpoint.record, pool.task, \
       store.journal.append, store.compact, store.evict. Kinds: transient, \
       fatal, crash."
    in
    Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let run seed scale jobs metrics users communities poison attack_count
      store_dir fault_spec checkpoint resume () =
    setup_logs ();
    let fault_configured =
      match fault_spec with
      | Some spec -> Fault.configure ~seed spec
      | None -> Fault.configure_env ~seed ()
    in
    let users =
      String.split_on_char ',' users
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map int_of_string_opt
    in
    match
      Result.bind fault_configured @@ fun () ->
      if List.exists Option.is_none users || users = [] then
        Error "bad --users (want comma-separated positive counts)"
      else
        let users = List.map Option.get users in
        if List.exists (fun u -> u <= 0) users then
          Error "bad --users (want comma-separated positive counts)"
        else Ok users
    with
    | Error e -> fail "%s" e
    | Ok users -> (
        let checkpoint_opened =
          match (checkpoint, resume) with
          | None, true -> Error "--resume requires --checkpoint FILE"
          | None, false -> Ok None
          | Some path, resume ->
              Result.map Option.some
                (Eval.Checkpoint.open_ ~path
                   ~params:(Printf.sprintf "seed=%d scale=%h" seed scale)
                   ~resume)
        in
        match checkpoint_opened with
        | Error e -> fail "%s" e
        | Ok ck -> (
            if metrics then Obs.enable_metrics ();
            let lab = Eval.Lab.create ~seed ~scale ?jobs ?checkpoint:ck () in
            let cfg =
              {
                Eval.Tenants_exp.default_config with
                Eval.Tenants_exp.users;
                communities;
                poison_fraction = poison;
                attack_count;
                store_dir;
              }
            in
            let result = Eval.Tenants_exp.run lab cfg in
            Eval.Lab.shutdown lab;
            Option.iter Eval.Checkpoint.close ck;
            let outcome =
              match result with
              | Error e -> fail "%s" e
              | Ok (report, detail) ->
                  print_string report;
                  prerr_string detail;
                  `Ok ()
            in
            if metrics then begin
              Obs.stop ();
              Obs.dump_metrics stderr
            end;
            outcome))
  in
  guarded
    (Cmd.info "tenants"
       ~doc:
         "Multi-tenant poisoning at provider scale: per-user Bayes state \
          for N mailboxes over a shared prior, a poisoned subset, and \
          per-user attack/defense outcomes.")
    Term.(
      const run $ seed_arg $ scale_arg $ jobs_arg $ metrics_arg $ users_arg
      $ communities_arg $ poison_arg $ attack_count_arg $ store_dir_arg
      $ fault_spec_arg $ checkpoint_arg $ resume_arg)

(* --------------------------------------------------------------- *)
(* db                                                               *)

let db_verify_cmd =
  let db_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trained filter database to verify.")
  in
  let verify_store dir =
    match Spamlab_store.Store.verify_dir dir with
    | Error e -> fail "%s: %s" dir e
    | Ok r ->
        let open Spamlab_store.Store in
        Printf.printf "%s: sharded tenant store, %d shards\n" dir r.dir_shards;
        Printf.printf
          "  prior:    %s\n"
          (match r.prior_ok with
          | Ok p ->
              Printf.sprintf "ok (v%d, %d tokens, %d spam + %d ham)"
                p.Token_db.version p.Token_db.entries p.Token_db.nspam
                p.Token_db.nham
          | Error e -> "CORRUPT: " ^ e);
        Printf.printf "  segments: %d users, %d rows\n" r.dir_users r.dir_rows;
        Printf.printf "  journals: %d committed ops\n" r.dir_ops;
        let bad = ref (match r.prior_ok with Ok _ -> 0 | Error _ -> 1) in
        List.iter
          (fun s ->
            let seg =
              match s.segment with
              | `Ok -> Printf.sprintf "seg ok (%d users)" s.seg_users
              | `Missing -> "seg missing (empty)"
              | `Corrupt e ->
                  incr bad;
                  Printf.sprintf "seg CORRUPT: %s" e
            in
            let jrn =
              match s.journal with
              | `Ok n -> Printf.sprintf "journal ok (%d ops)" n
              | `Torn (n, salvage) ->
                  Printf.sprintf
                    "journal torn tail (%d committed ops, %d salvageable \
                     uncommitted)"
                    n salvage
              | `Stale -> "journal stale (compaction crash; will be discarded)"
              | `Missing -> "journal missing (fresh on next open)"
              | `Corrupt e ->
                  incr bad;
                  Printf.sprintf "journal CORRUPT: %s" e
            in
            Printf.printf "  shard %04d: %s; %s\n" s.shard seg jrn)
          r.shard_reports;
        if !bad > 0 then fail "%s: %d corrupt shard component(s)" dir !bad
        else `Ok ()
  in
  let run path () =
    setup_logs ();
    if Sys.file_exists path && Sys.is_directory path then
      if Spamlab_store.Store.is_store_dir path then verify_store path
      else fail "%s: directory is not a spamlab store" path
    else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> fail "%s" e
    | contents -> (
        match Token_db.verify_string contents with
        | Ok r -> (
            Printf.printf
              "%s: ok\n\
              \  format version: %d\n\
              \  checksum:       %s\n\
              \  counts:         %d spam + %d ham messages\n\
              \  entries:        %d tokens\n"
              path r.Token_db.version
              (match r.Token_db.checksum with
              | `Ok -> "ok (crc32)"
              | `Absent -> "absent (pre-v3 format)")
              r.Token_db.nspam r.Token_db.nham r.Token_db.entries;
            let journal s = Printf.printf "  journal:        %s\n" s in
            match Spamlab_spambayes.Filter.verify_journal path with
            | `Missing -> `Ok ()
            | `Ok n ->
                journal (Printf.sprintf "ok (%d committed ops)" n);
                `Ok ()
            | `Torn (n, salvage) ->
                journal
                  (Printf.sprintf
                     "torn tail (%d committed ops, %d salvageable \
                      uncommitted)"
                     n salvage);
                `Ok ()
            | `Stale ->
                journal "stale (fold crash; will be discarded)";
                `Ok ()
            | `Corrupt e ->
                journal ("CORRUPT: " ^ e);
                fail "%s.journal: corrupt journal: %s" path e)
        | Error e ->
            let salvage =
              match Token_db.salvage_string contents with
              | Ok s ->
                  Printf.sprintf " (salvageable: %d entries kept, %d lost)"
                    s.Token_db.kept s.Token_db.dropped
              | Error _ -> ""
            in
            fail "%s: corrupt token database: %s%s" path e salvage)
  in
  guarded
    (Cmd.info "verify"
       ~doc:"Check a database's format version, checksum and count \
             invariants, and its op journal FILE.journal when there is \
             one (committed ops, torn tail, staleness) — or, given a \
             sharded tenant-store directory, every shard's segment \
             CRC/invariants and journal tail; nonzero exit on \
             corruption.")
    Term.(const run $ db_pos)

let db_cmd =
  Cmd.group
    (Cmd.info "db" ~doc:"Inspect and verify trained filter databases.")
    [ db_verify_cmd ]

(* --------------------------------------------------------------- *)
(* serve / client                                                   *)

let socket_arg =
  let doc = "Unix socket path of the daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "TCP address of the daemon." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port when port >= 0 && port < 65536 ->
          Ok (Serve.Daemon.Tcp (host, port))
      | _ -> Error (Printf.sprintf "bad port in %S" spec))

let daemon_addr ?default socket tcp =
  match (socket, tcp, default) with
  | Some _, Some _, _ -> Error "choose one of --socket and --tcp"
  | Some p, None, _ -> Ok (Serve.Daemon.Unix_sock p)
  | None, Some spec, _ -> parse_tcp spec
  | None, None, Some d -> Ok d
  | None, None, None -> Error "need --socket PATH or --tcp HOST:PORT"

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> p
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

let serve_cmd =
  let publish_every_arg =
    let doc =
      "Trained messages between automatic snapshot publishes (0 disables; \
       PUBLISH always works)."
    in
    Arg.(value & opt int 32 & info [ "publish-every" ] ~docv:"N" ~doc)
  in
  let max_body_arg =
    let doc = "Largest accepted Content-Length in bytes." in
    Arg.(
      value
      & opt int Serve.Protocol.default_max_body
      & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let fault_spec_arg =
    let doc =
      "Deterministic fault injection spec (also read from SPAMLAB_FAULTS); \
       daemon sites: serve.accept, serve.read, serve.publish, db.save.write, \
       db.save.rename, db.journal.fold, store.journal.append, store.compact, \
       store.evict."
    in
    Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let store_dir_arg =
    let doc =
      "Directory of the multi-tenant sharded token store; enables User-header \
       routing to per-tenant Bayes state (created on first start with the \
       shared filter as global prior)."
    in
    Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)
  in
  let store_shards_arg =
    let doc = "Shards of a newly created tenant store." in
    Arg.(
      value
      & opt int Spamlab_store.Store.default_config.shards
      & info [ "store-shards" ] ~docv:"N" ~doc)
  in
  let store_cache_arg =
    let doc = "Max cached tenant overlays across all shards." in
    Arg.(
      value
      & opt int Spamlab_store.Store.default_config.cache
      & info [ "store-cache" ] ~docv:"N" ~doc)
  in
  let timeout_read_arg =
    let doc =
      "Absolute budget in seconds for reading one request frame; a peer \
       trickling bytes past it is answered ERR and dropped (0 = no limit)."
    in
    Arg.(value & opt float 0.0 & info [ "timeout-read" ] ~docv:"SECONDS" ~doc)
  in
  let timeout_write_arg =
    let doc =
      "Absolute budget in seconds for writing one response (0 = no limit)."
    in
    Arg.(value & opt float 0.0 & info [ "timeout-write" ] ~docv:"SECONDS" ~doc)
  in
  let timeout_idle_arg =
    let doc =
      "Drop connections that complete no request for this many seconds \
       (0 = never)."
    in
    Arg.(value & opt float 0.0 & info [ "timeout-idle" ] ~docv:"SECONDS" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Admission cap: connections over it are answered BUSY and closed \
       (0 = unlimited)."
    in
    Arg.(value & opt int 0 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Per-round request execution quota: requests over it are answered \
       BUSY without executing (0 = unlimited)."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc =
      "Grace period in seconds between SIGTERM/SIGINT and abandoning \
       still-active connections."
    in
    Arg.(
      value
      & opt float Serve.Daemon.default_limits.drain_s
      & info [ "drain" ] ~docv:"SECONDS" ~doc)
  in
  let degraded_after_arg =
    let doc =
      "Consecutive publish failures before entering degraded mode \
       (TRAIN/UNTRAIN refused, CLASSIFY keeps serving the last snapshot; \
       0 = never)."
    in
    Arg.(value & opt int 0 & info [ "degraded-after" ] ~docv:"N" ~doc)
  in
  let run seed db socket tcp publish_every max_body jobs tokenizer fault_spec
      store_dir store_shards store_cache timeout_read
      timeout_write timeout_idle max_conns max_inflight drain degraded_after ()
      =
    setup_logs ();
    let fault_configured =
      match fault_spec with
      | Some spec -> Fault.configure ~seed spec
      | None -> Fault.configure_env ~seed ()
    in
    match fault_configured with
    | Error e -> fail "%s" e
    | Ok () -> (
        let default =
          Serve.Daemon.Unix_sock
            (Filename.concat (Filename.dirname db) "spamlab.sock")
        in
        match daemon_addr ~default socket tcp with
        | Error e -> fail "%s" e
        | Ok addr -> (
            let store =
              Option.map
                (fun dir ->
                  {
                    Spamlab_store.Store.backend = `Sharded dir;
                    shards = store_shards;
                    cache = store_cache;
                    compact_ratio =
                      Spamlab_store.Store.default_config.compact_ratio;
                  })
                store_dir
            in
            let config =
              {
                Serve.Daemon.addr;
                db_path = db;
                tokenizer;
                options = Options.default;
                publish_every;
                max_body;
                jobs =
                  (match jobs with
                  | Some j -> j
                  | None -> Spamlab_parallel.default_jobs ());
                store;
                limits =
                  {
                    Serve.Daemon.read_timeout_s = timeout_read;
                    write_timeout_s = timeout_write;
                    idle_timeout_s = timeout_idle;
                    max_conns;
                    max_inflight;
                    drain_s = drain;
                    degraded_after;
                  };
              }
            in
            match Serve.Daemon.create config with
            | Error e -> fail "%s" e
            | Ok daemon ->
                let stop_flag = Atomic.make false in
                List.iter
                  (fun s ->
                    try
                      Sys.set_signal s
                        (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
                    with Invalid_argument _ | Sys_error _ -> ())
                  [ Sys.sigterm; Sys.sigint ];
                let ready sa =
                  Logs.info (fun m -> m "listening on %s" (string_of_sockaddr sa))
                in
                let result =
                  Serve.Daemon.run ~ready
                    ~stop:(fun () -> Atomic.get stop_flag)
                    daemon
                in
                Serve.Daemon.shutdown daemon;
                (match result with Error e -> fail "%s" e | Ok () -> `Ok ())))
  in
  guarded
    (Cmd.info "serve"
       ~doc:
         "Run the classification daemon: a spamd-style service answering \
          PING/STATS/PUBLISH/CLASSIFY/TRAIN/UNTRAIN over a unix or TCP \
          socket.")
    Term.(
      const run $ seed_arg $ db_arg $ socket_arg $ tcp_arg $ publish_every_arg
      $ max_body_arg $ jobs_arg $ tokenizer_arg $ fault_spec_arg
      $ store_dir_arg $ store_shards_arg $ store_cache_arg
      $ timeout_read_arg $ timeout_write_arg $ timeout_idle_arg $ max_conns_arg
      $ max_inflight_arg $ drain_arg $ degraded_after_arg)

let oneshot addr (req : Serve.Protocol.request) =
  match Serve.Client.roundtrip addr req with
  | Error e -> fail "%s" (Serve.Client.error_message e)
  | Ok (Serve.Protocol.Err e) -> fail "daemon error: %s" e
  | Ok Serve.Protocol.Busy ->
      fail "daemon busy: request shed under load, retry after a backoff"
  | Ok (Serve.Protocol.Ok payload) ->
      print_string payload;
      `Ok ()

let client_simple_cmd name ~doc verb =
  let run socket tcp () =
    match daemon_addr socket tcp with
    | Error e -> fail "%s" e
    | Ok addr -> oneshot addr { Serve.Protocol.verb; body = ""; user = None }
  in
  guarded (Cmd.info name ~doc) Term.(const run $ socket_arg $ tcp_arg)

let user_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "user" ] ~docv:"USER"
        ~doc:
          "Address the request to this tenant's per-user state (requires a \
           daemon started with --store-dir).")

let mbox_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"MBOX" ~doc:"Raw mbox file to send as the request body.")

let class_arg =
  let doc = "Message class: ham or spam." in
  Arg.(
    required
    & opt (some (enum [ ("ham", Label.Ham); ("spam", Label.Spam) ])) None
    & info [ "class" ] ~docv:"CLASS" ~doc)

let client_body_cmd name ~doc mk_verb =
  let run socket tcp user verb mbox () =
    match daemon_addr socket tcp with
    | Error e -> fail "%s" e
    | Ok addr ->
        let body = In_channel.with_open_bin mbox In_channel.input_all in
        oneshot addr { Serve.Protocol.verb; body; user }
  in
  guarded (Cmd.info name ~doc)
    Term.(const run $ socket_arg $ tcp_arg $ user_arg $ mk_verb $ mbox_pos)

let client_classify_cmd =
  client_body_cmd "classify"
    ~doc:
      "Classify every message of an mbox against the daemon's published \
       snapshot; prints one 'index verdict indicator' line per message."
    Term.(const Serve.Protocol.Classify)

let client_train_cmd =
  client_body_cmd "train"
    ~doc:"Train the daemon's delta on an mbox of one class."
    Term.(const (fun c -> Serve.Protocol.Train c) $ class_arg)

let client_untrain_cmd =
  client_body_cmd "untrain"
    ~doc:"Remove an mbox of one class from the daemon's delta."
    Term.(const (fun c -> Serve.Protocol.Untrain c) $ class_arg)

let client_stall_cmd =
  let send_arg =
    let doc =
      "Bytes to send before going silent (default: half a CLASSIFY header \
       — the classic slow-loris shape)."
    in
    Arg.(
      value
      & opt string "CLASSIFY SPAMLAB/1.0\r\nContent-Le"
      & info [ "send" ] ~docv:"BYTES" ~doc)
  in
  let hold_arg =
    let doc = "Seconds to hold the half-open connection before giving up." in
    Arg.(value & opt float 5.0 & info [ "hold" ] ~docv:"SECONDS" ~doc)
  in
  let run socket tcp bytes hold () =
    match daemon_addr socket tcp with
    | Error e -> fail "%s" e
    | Ok addr -> (
        match Serve.Client.stall ~addr ~bytes ~hold_s:hold with
        | Error e -> fail "%s" (Serve.Client.error_message e)
        | Ok outcome ->
            (* "reaped": the daemon dropped us first (its deadline or
               idle reaping worked); "held": we outlived the hold. *)
            print_endline outcome;
            `Ok ())
  in
  guarded
    (Cmd.info "stall"
       ~doc:
         "Adversarial slow-loris probe: connect, send a partial request, \
          then go silent; prints 'reaped' if the daemon closed the \
          connection first and 'held' if it survived the whole hold.")
    Term.(const run $ socket_arg $ tcp_arg $ send_arg $ hold_arg)

let client_load_cmd =
  let clients_arg =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Logical clients.")
  in
  let train_size_arg =
    Arg.(value & opt int 96 & info [ "train-size" ] ~docv:"N" ~doc:"Messages to train.")
  in
  let eval_size_arg =
    Arg.(value & opt int 48 & info [ "eval-size" ] ~docv:"N" ~doc:"Messages to classify.")
  in
  let batch_arg =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Messages per request.")
  in
  let users_arg =
    Arg.(
      value & opt int 0
      & info [ "users" ] ~docv:"N"
          ~doc:
            "Deal the schedule round-robin across N tenants via User headers \
             (0 = single-filter mode; requires --store-dir on the daemon).")
  in
  let user_prefix_arg =
    Arg.(
      value & opt string ""
      & info [ "user-prefix" ] ~docv:"PREFIX"
          ~doc:
            "Prepend this to every tenant name, so concurrent load runs \
             against one daemon can address disjoint tenant sets (default: \
             none — the historical names).")
  in
  let run seed socket tcp clients train_size eval_size batch users user_prefix
      () =
    setup_logs ();
    match daemon_addr socket tcp with
    | Error e -> fail "%s" e
    | Ok addr -> (
        let cfg =
          {
            (Serve.Client.default_load ~addr ~seed) with
            Serve.Client.clients;
            train_size;
            eval_size;
            train_batch = batch;
            classify_batch = batch;
            users;
            user_prefix;
          }
        in
        match Serve.Client.load cfg with
        | Error e -> fail "%s" e
        | Ok report ->
            (* Summary on stdout is deterministic (jobs- and
               crash/replay-invariant); timing detail goes to stderr. *)
            print_string report.Serve.Client.summary;
            prerr_string report.Serve.Client.detail;
            `Ok ())
  in
  guarded
    (Cmd.info "load"
       ~doc:
         "Deterministic load generator: train a generated corpus in \
          batches, publish, classify a held-out corpus, print a \
          deterministic summary.")
    Term.(
      const run $ seed_arg $ socket_arg $ tcp_arg $ clients_arg
      $ train_size_arg $ eval_size_arg $ batch_arg $ users_arg
      $ user_prefix_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running spamlab daemon.")
    [
      client_simple_cmd "ping" ~doc:"Liveness check." Serve.Protocol.Ping;
      client_simple_cmd "stats"
        ~doc:
          "Print the daemon's request counters and latency histograms \
           (latency.* lines are wall-clock and not deterministic)."
        Serve.Protocol.Stats;
      client_simple_cmd "health"
        ~doc:
          "Print the daemon's overload state: \
           state=READY|DEGRADED|DRAINING plus transition counters."
        Serve.Protocol.Health;
      client_simple_cmd "publish"
        ~doc:"Force a snapshot publish of the daemon's training delta."
        Serve.Protocol.Publish;
      client_classify_cmd; client_train_cmd; client_untrain_cmd;
      client_stall_cmd; client_load_cmd;
    ]

(* --------------------------------------------------------------- *)
(* fault / chaos                                                    *)

let fault_sites_cmd =
  let run () =
    List.iter
      (fun (name, desc) -> Printf.printf "%-22s %s\n" name desc)
      Fault.known_sites;
    `Ok ()
  in
  guarded
    (Cmd.info "sites"
       ~doc:
         "List every compiled-in fault-injection site with its placement, \
          the site names --fault-spec and SPAMLAB_FAULTS accept.")
    Term.(const run)

let fault_cmd =
  Cmd.group
    (Cmd.info "fault" ~doc:"Deterministic fault-injection utilities.")
    [ fault_sites_cmd ]

let chaos_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Scratch directory for daemons, stores and captured client \
             output (created if missing; stale state is removed).")
  in
  let clients_arg =
    Arg.(
      value & opt int 3
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent load-client processes.")
  in
  let users_arg =
    Arg.(
      value & opt int 2
      & info [ "users" ] ~docv:"N"
          ~doc:
            "Tenants per client (>= 1: concurrent clients need disjoint \
             tenant state for deterministic verdicts).")
  in
  let train_size_arg =
    Arg.(
      value & opt int 48
      & info [ "train-size" ] ~docv:"N" ~doc:"Messages each client trains.")
  in
  let eval_size_arg =
    Arg.(
      value & opt int 24
      & info [ "eval-size" ] ~docv:"N" ~doc:"Messages each client classifies.")
  in
  let batch_arg =
    Arg.(value & opt int 6 & info [ "batch" ] ~docv:"N" ~doc:"Messages per request.")
  in
  let kills_arg =
    Arg.(
      value & opt int 2
      & info [ "kills" ] ~docv:"N"
          ~doc:"Planned crash-kill/restart cycles (at replay-safe sites).")
  in
  let fault_p_arg =
    Arg.(
      value & opt float 0.02
      & info [ "fault-p" ] ~docv:"P"
          ~doc:"Per-occurrence transient fault probability.")
  in
  let publish_fault_p_arg =
    Arg.(
      value & opt float 0.2
      & info [ "publish-fault-p" ] ~docv:"P"
          ~doc:
            "Transient probability for serve.publish (higher, so degraded \
             mode actually engages).")
  in
  let jobs_chaos_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains per daemon.")
  in
  let wall_arg =
    Arg.(
      value & opt float 120.0
      & info [ "wall-budget" ] ~docv:"SECONDS"
          ~doc:"Hard wall-clock cap for the whole soak.")
  in
  let run seed dir clients users train_size eval_size batch kills fault_p
      publish_fault_p jobs wall () =
    setup_logs ();
    let cfg =
      {
        (Serve.Chaos.default ~exe:Sys.executable_name ~dir ~seed) with
        Serve.Chaos.clients;
        users;
        train_size;
        eval_size;
        batch;
        kills;
        fault_p;
        publish_fault_p;
        jobs;
        wall_budget_s = wall;
      }
    in
    match Serve.Chaos.run cfg with
    | Ok report ->
        print_string report;
        `Ok ()
    | Error e -> fail "%s" e
  in
  guarded
    (Cmd.info "chaos"
       ~doc:
         "Deterministic chaos soak: a daemon under a seed-derived fault \
          schedule with crash-kills and restarts, concurrent load clients, \
          and end-state invariants (byte-identical client output vs an \
          uninterrupted baseline, verified database, READY recovery).")
    Term.(
      const run $ seed_arg $ dir_arg $ clients_arg $ users_arg
      $ train_size_arg $ eval_size_arg $ batch_arg $ kills_arg $ fault_p_arg
      $ publish_fault_p_arg $ jobs_chaos_arg $ wall_arg)

(* --------------------------------------------------------------- *)

let main_cmd =
  let doc =
    "laboratory for training-set poisoning attacks on statistical spam \
     filters (Nelson et al., 2008)"
  in
  Cmd.group
    (Cmd.info "spamlab" ~version:"1.0.0" ~doc)
    [
      corpus_cmd; train_cmd; classify_cmd; classify_mbox_cmd; tokenize_cmd;
      stats_cmd;
      attack_cmd; evade_cmd; roni_cmd; thresholds_cmd; experiment_cmd;
      tenants_cmd; db_cmd; serve_cmd; client_cmd; fault_cmd; chaos_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

(* Tests for the defenses: RONI and the dynamic threshold. *)

open Spamlab_core
open Spamlab_stats
module Label = Spamlab_spambayes.Label
module Filter = Spamlab_spambayes.Filter
module Dataset = Spamlab_corpus.Dataset
module Tokenizer = Spamlab_tokenizer.Tokenizer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A small generated corpus as the trusted pool: RONI's separation
   property needs realistic token statistics (rare tokens that a
   dictionary email flips), which the full generator provides. *)
let generator_config =
  Spamlab_corpus.Generator.default_config
    ~sizes:
      {
        Spamlab_corpus.Vocabulary.shared = 600;
        ham_specific = 400;
        spam_specific = 300;
        colloquial = 200;
        rare_standard = 1_500;
        rare_nonstandard = 1_500;
      }
    ~seed:1234 ()

let pool =
  let corpus =
    Spamlab_corpus.Trec.generate generator_config (Rng.create 55) ~size:200
      ~spam_fraction:0.5
  in
  Dataset.of_labeled Tokenizer.spambayes corpus

(* A dictionary-attack-like candidate: the whole ham-model support. *)
let ham_covering_words =
  Spamlab_corpus.Language_model.support
    generator_config.Spamlab_corpus.Generator.ham_model

let ham_covering_attack = Spamlab_spambayes.Intern.intern_array ham_covering_words

let ordinary_spam =
  (Dataset.of_message Tokenizer.spambayes Label.Spam
     (Spamlab_corpus.Generator.spam generator_config (Rng.create 77)))
    .Dataset.ids

(* ------------------------------------------------------------------ *)
(* RONI                                                                *)

let roni_tests =
  [
    test_case "default config matches the paper" (fun () ->
        let c = Roni.default_config in
        check_int "train" 20 c.Roni.train_size;
        check_int "validation" 50 c.Roni.validation_size;
        check_int "trials" 5 c.Roni.trials);
    test_case "dictionary-style candidate is rejected" (fun () ->
        let rng = Rng.create 1 in
        let a = Roni.assess rng ~pool ~candidate:ham_covering_attack in
        check_bool "harmful" true (a.Roni.mean_ham_impact > 0.0);
        check_bool "rejected" true a.Roni.rejected);
    test_case "ordinary spam is accepted" (fun () ->
        let rng = Rng.create 2 in
        let a = Roni.assess rng ~pool ~candidate:ordinary_spam in
        check_bool "not rejected" false a.Roni.rejected);
    test_case "attack impact exceeds ordinary-spam impact" (fun () ->
        let rng = Rng.create 3 in
        let attack = Roni.assess rng ~pool ~candidate:ham_covering_attack in
        let benign = Roni.assess rng ~pool ~candidate:ordinary_spam in
        check_bool "separation" true
          (attack.Roni.mean_ham_impact > benign.Roni.mean_ham_impact));
    test_case "per-trial results have the configured length" (fun () ->
        let rng = Rng.create 4 in
        let config = { Roni.default_config with Roni.trials = 7 } in
        let a = Roni.assess ~config rng ~pool ~candidate:ordinary_spam in
        check_int "trials" 7 (Array.length a.Roni.per_trial));
    test_case "pool too small is rejected" (fun () ->
        let rng = Rng.create 5 in
        let tiny = Array.sub pool 0 10 in
        Alcotest.check_raises "small"
          (Invalid_argument "Roni.assess: pool smaller than train + validation sizes")
          (fun () -> ignore (Roni.assess rng ~pool:tiny ~candidate:ordinary_spam)));
    test_case "pool without ham is rejected" (fun () ->
        let rng = Rng.create 6 in
        let spam_only =
          Array.map (fun e -> { e with Dataset.label = Label.Spam }) pool
        in
        Alcotest.check_raises "no ham"
          (Invalid_argument "Roni.assess: pool contains no ham") (fun () ->
            ignore (Roni.assess rng ~pool:spam_only ~candidate:ordinary_spam)));
    test_case "assessment is deterministic given the rng seed" (fun () ->
        let a1 = Roni.assess (Rng.create 8) ~pool ~candidate:ordinary_spam in
        let a2 = Roni.assess (Rng.create 8) ~pool ~candidate:ordinary_spam in
        Alcotest.(check (float 1e-12))
          "same impact" a1.Roni.mean_ham_impact a2.Roni.mean_ham_impact);
    test_case "assess equals one trained copy per trial" (fun () ->
        (* [assess] scores the with-candidate side arithmetically from
           the baseline's counts.  The naive twin makes the same rng
           draws, trains a copy of the baseline on the candidate and
           classifies with it: every trial's impact must agree. *)
        let config = { Roni.default_config with Roni.trials = 4 } in
        let ham_as_ham filter validation =
          Array.fold_left
            (fun acc (e : Dataset.example) ->
              if
                e.label = Label.Ham
                && (Dataset.classify filter e).Spamlab_spambayes.Classify.verdict
                   = Label.Ham_v
              then acc + 1
              else acc)
            0 validation
        in
        let naive rng candidate =
          let needed = config.train_size + config.validation_size in
          Array.init config.trials (fun _ ->
              let sample = Rng.sample_without_replacement rng needed pool in
              let train = Array.sub sample 0 config.train_size in
              let validation =
                Array.sub sample config.train_size config.validation_size
              in
              let baseline = Filter.create () in
              Dataset.train_filter baseline train;
              let with_candidate = Filter.copy baseline in
              Spamlab_spambayes.Token_db.train_ids (Filter.db with_candidate)
                Label.Spam candidate;
              float_of_int
                (ham_as_ham baseline validation
                - ham_as_ham with_candidate validation))
        in
        List.iter
          (fun (name, candidate) ->
            let candidate =
              Array.of_list (List.sort_uniq Int.compare (Array.to_list candidate))
            in
            let got =
              (Roni.assess ~config (Rng.create 21) ~pool ~candidate).Roni.per_trial
            in
            check_bool name true (got = naive (Rng.create 21) candidate);
            if name = "dictionary-style" then
              check_bool "the attack flips validation ham" true
                (Array.exists (fun d -> d > 0.0) got))
          [
            ("dictionary-style", ham_covering_attack);
            ("ordinary spam", ordinary_spam);
            ( "unseen tokens",
              Spamlab_spambayes.Intern.intern_array
                [| "roni-twin-unseen-a"; "roni-twin-unseen-b" |] );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic threshold                                                   *)

let scored_separable =
  (* Ham scores low, spam scores high: the clean case. *)
  Array.init 100 (fun i ->
      if i < 50 then (0.01 +. (0.002 *. float_of_int i), Label.Ham, 1)
      else (0.85 +. (0.003 *. float_of_int (i - 50)), Label.Spam, 1))

let config = { Dynamic_threshold.quantile = 0.05 }

let threshold_tests =
  [
    test_case "thresholds_of_scores separates the separable case" (fun () ->
        let theta0, theta1 =
          Dynamic_threshold.thresholds_of_scores ~config scored_separable
        in
        check_bool "ordered" true (theta0 < theta1);
        (* All ham sits below theta0's region top, all spam above. *)
        check_bool "theta0 above ham" true (theta0 > 0.1);
        check_bool "theta1 within spam" true (theta1 > 0.5));
    test_case "weights are equivalent to duplication" (fun () ->
        let weighted =
          [| (0.1, Label.Ham, 3); (0.9, Label.Spam, 2); (0.5, Label.Ham, 1) |]
        in
        let duplicated =
          [|
            (0.1, Label.Ham, 1); (0.1, Label.Ham, 1); (0.1, Label.Ham, 1);
            (0.9, Label.Spam, 1); (0.9, Label.Spam, 1); (0.5, Label.Ham, 1);
          |]
        in
        let t0w, t1w = Dynamic_threshold.thresholds_of_scores ~config weighted in
        let t0d, t1d = Dynamic_threshold.thresholds_of_scores ~config duplicated in
        Alcotest.(check (float 1e-12)) "theta0" t0d t0w;
        Alcotest.(check (float 1e-12)) "theta1" t1d t1w);
    test_case "thresholds_of_scores rejects empty input" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Dynamic_threshold.thresholds_of_scores: no scores")
          (fun () -> ignore (Dynamic_threshold.thresholds_of_scores ~config [||])));
    test_case "thresholds from a clean training set behave" (fun () ->
        let rng = Rng.create 11 in
        let theta0, theta1 = Dynamic_threshold.thresholds ~config rng pool in
        check_bool "ordered" true (0.0 <= theta0 && theta0 < theta1 && theta1 <= 1.0));
    test_case "thresholds rejects a tiny training set" (fun () ->
        Alcotest.check_raises "small"
          (Invalid_argument "Dynamic_threshold.thresholds: training set too small")
          (fun () ->
            ignore
              (Dynamic_threshold.thresholds ~config (Rng.create 1) (Array.sub pool 0 2))));
    qtest "thresholds always ordered on random score sets"
      QCheck2.Gen.(
        list_size (int_range 4 60)
          (pair (float_range 0.0 1.0) bool))
      (fun scored ->
        let scores =
          Array.of_list
            (List.map
               (fun (s, is_spam) ->
                 (s, (if is_spam then Label.Spam else Label.Ham), 1))
               scored)
        in
        let theta0, theta1 = Dynamic_threshold.thresholds_of_scores ~config scores in
        0.0 <= theta0 && theta0 < theta1 && theta1 <= 1.0);
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let pipeline_tests =
  let open Spamlab_core in
  let initial = Array.sub pool 0 120 in
  let clean_round = Array.sub pool 120 60 in
  let attack_round =
    let attack_example =
      {
        Dataset.label = Label.Spam;
        ids = ham_covering_attack;
        raw_token_count = Array.length ham_covering_words;
      }
    in
    Array.append (Array.sub pool 120 60) (Array.make 5 attack_example)
  in
  [
    test_case "validates configuration" (fun () ->
        Alcotest.check_raises "period"
          (Invalid_argument "Pipeline.run: retrain_period must be positive")
          (fun () ->
            ignore
              (Pipeline.run
                 { Pipeline.retrain_period = 0; policy = Pipeline.Train_everything; roni = None;
                   initial_training = initial }
                 (Rng.create 1) ~rounds:[]));
        Alcotest.check_raises "tiny pool for roni"
          (Invalid_argument "Pipeline.run: initial training pool too small for RONI")
          (fun () ->
            ignore
              (Pipeline.run
                 { Pipeline.retrain_period = 1;
                   policy = Pipeline.Train_everything;
                   roni = Some Roni.default_config;
                   initial_training = Array.sub pool 0 10 }
                 (Rng.create 1) ~rounds:[])));
    test_case "clean rounds keep delivery high" (fun () ->
        let report =
          Pipeline.run
            { Pipeline.retrain_period = 1; policy = Pipeline.Train_everything;
              roni = None;
              initial_training = initial }
            (Rng.create 2)
            ~rounds:[ clean_round; clean_round ]
        in
        check_int "rounds" 2 (List.length report.Pipeline.rounds);
        List.iter
          (fun (r : Pipeline.round_report) ->
            check_bool "delivery" true
              (Pipeline.ham_delivery_rate r.Pipeline.counts > 0.8))
          report.Pipeline.rounds);
    test_case "undefended pipeline collapses after an attack round" (fun () ->
        let report =
          Pipeline.run
            { Pipeline.retrain_period = 1; policy = Pipeline.Train_everything;
              roni = None;
              initial_training = initial }
            (Rng.create 3)
            ~rounds:[ attack_round; clean_round ]
        in
        match report.Pipeline.rounds with
        | [ first; second ] ->
            (* The attack trains at the end of round 1, so round 2's
               delivery is the damaged one. *)
            check_bool "before" true
              (Pipeline.ham_delivery_rate first.Pipeline.counts > 0.8);
            check_bool "after" true
              (Pipeline.ham_delivery_rate second.Pipeline.counts < 0.5)
        | _ -> Alcotest.fail "wrong round count");
    test_case "RONI pipeline rejects the attack and survives" (fun () ->
        let report =
          Pipeline.run
            { Pipeline.retrain_period = 1;
              policy = Pipeline.Train_everything;
              roni = Some Roni.default_config;
              initial_training = initial }
            (Rng.create 4)
            ~rounds:[ attack_round; clean_round ]
        in
        check_bool "rejected the attack" true
          (report.Pipeline.total_rejected >= 5);
        match report.Pipeline.rounds with
        | [ _; second ] ->
            check_bool "still delivering" true
              (Pipeline.ham_delivery_rate second.Pipeline.counts > 0.8)
        | _ -> Alcotest.fail "wrong round count");
    test_case "retrain period defers learning" (fun () ->
        let report =
          Pipeline.run
            { Pipeline.retrain_period = 3; policy = Pipeline.Train_everything;
              roni = None;
              initial_training = initial }
            (Rng.create 5)
            ~rounds:[ attack_round; clean_round; clean_round ]
        in
        match report.Pipeline.rounds with
        | [ _; second; _third ] ->
            (* Nothing retrains until round 3, so round 2 is still
               served by the clean initial filter. *)
            check_bool "round 2 clean" true
              (Pipeline.ham_delivery_rate second.Pipeline.counts > 0.8)
        | _ -> Alcotest.fail "wrong round count");
    test_case "ham_delivery_rate of an empty round is 1" (fun () ->
        let counts =
          {
            Pipeline.ham_as_ham = 0; ham_as_unsure = 0; ham_as_spam = 0;
            spam_as_ham = 0; spam_as_unsure = 0; spam_as_spam = 0;
          }
        in
        Alcotest.(check (float 1e-12))
          "one" 1.0
          (Pipeline.ham_delivery_rate counts));
  ]

let () =
  Alcotest.run "defenses"
    [
      ("roni", roni_tests);
      ("dynamic_threshold", threshold_tests);
      ("pipeline", pipeline_tests);
    ]

open Spamlab_stats
module Dataset = Spamlab_corpus.Dataset
module Generator = Spamlab_corpus.Generator
module Vocabulary = Spamlab_corpus.Vocabulary
module Message = Spamlab_email.Message
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Label = Spamlab_spambayes.Label
module Options = Spamlab_spambayes.Options
module Pseudospam = Spamlab_core.Pseudospam_attack
module Good_word = Spamlab_core.Good_word_attack
module Attack = Spamlab_core.Dictionary_attack
module Roni = Spamlab_core.Roni

let world_size lab = max 400 (int_of_float (2_000.0 *. Lab.scale lab))

(* ------------------------------------------------------------------ *)
(* Pseudospam (ham-labeled Causative Integrity attack, §2.2)           *)

type pseudospam_point = {
  attack_fraction : float;
  campaign_spam_as_ham : float;
  campaign_spam_missed : float;
  other_spam_missed : float;
  ham_damage : float;
}

(* A future spam campaign: a fixed vocabulary of campaign-specific words
   (deep ranks of the spam vocabulary, so the clean filter has seen them
   rarely) blended into otherwise ordinary spam. *)
let campaign_vocabulary lab =
  let vocab = (Lab.config lab).Generator.vocabulary in
  let spam_specific = vocab.Vocabulary.spam_specific in
  let n = Array.length spam_specific in
  Array.sub spam_specific (n / 2) (min 300 (n - (n / 2)))

let campaign_message lab rng campaign =
  let config = Lab.config lab in
  let shell = Generator.spam config rng in
  let picked = min (25 + Rng.int rng 25) (Array.length campaign) in
  let campaign_words =
    Array.to_list (Rng.sample_without_replacement rng picked campaign)
  in
  let filler =
    Spamlab_corpus.Language_model.sample_words config.Generator.spam_model rng
      40
  in
  Message.with_body shell
    (Generator.body_of_words rng (campaign_words @ filler))

let pseudospam lab =
  let rng = Lab.rng lab "pseudospam" in
  let size = world_size lab in
  let tokenizer = Lab.tokenizer lab in
  let train = Lab.corpus lab ~name:"pseudospam/train" ~size ~spam_fraction:0.5 in
  let base = Poison.base_filter tokenizer train in
  let campaign = campaign_vocabulary lab in
  let camouflage = (Lab.config lab).Generator.vocabulary.Vocabulary.shared in
  let campaign_test =
    Array.init 100 (fun _ ->
        Dataset.of_message tokenizer Label.Spam
          (campaign_message lab rng campaign))
  in
  let other_test =
    Lab.corpus lab ~name:"pseudospam/test" ~size:(size / 5) ~spam_fraction:0.5
  in
  let plan =
    Pseudospam.craft rng ~campaign ~camouflage ~camouflage_fraction:0.5
      ~count:1
  in
  let payload =
    match plan.Pseudospam.emails with
    | email :: _ -> fst (Dataset.tokenize_ids tokenizer email)
    | [] -> assert false
  in
  List.map
    (fun attack_fraction ->
      let count = Poison.attack_count ~train_size:size ~fraction:attack_fraction in
      let filter = Filter.copy base in
      Token_db.train_many_ids (Filter.db filter) Label.Ham payload count;
      let campaign_confusion =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples filter campaign_test)
      in
      let other_confusion =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples filter other_test)
      in
      {
        attack_fraction;
        campaign_spam_as_ham =
          100.0 *. Confusion.spam_as_ham_rate campaign_confusion;
        campaign_spam_missed =
          100.0 *. Confusion.spam_misclassified_rate campaign_confusion;
        other_spam_missed =
          100.0 *. Confusion.spam_misclassified_rate other_confusion;
        ham_damage = 100.0 *. Confusion.ham_misclassified_rate other_confusion;
      })
    [ 0.0; 0.005; 0.01; 0.02; 0.05 ]

let render_pseudospam points =
  "Pseudospam attack (Section 2.2's ham-labeled variant):\n\
   attacker whitewashes a future campaign's vocabulary by getting\n\
   innocuous-looking emails trained as ham\n\n"
  ^ Table.render
      ~header:
        [
          "attack %"; "campaign->inbox %"; "campaign missed %";
          "other spam missed %"; "ham damaged %";
        ]
      ~rows:
        (List.map
           (fun p ->
             [
               Printf.sprintf "%.1f" (100.0 *. p.attack_fraction);
               Table.f2 p.campaign_spam_as_ham;
               Table.f2 p.campaign_spam_missed;
               Table.f2 p.other_spam_missed;
               Table.f2 p.ham_damage;
             ])
           points)

(* ------------------------------------------------------------------ *)
(* Good-word evasion (Exploratory Integrity baseline, §6)              *)

type good_word_point = {
  words_budget : int;
  evasion_rate : float;
  as_ham_rate : float;
  mean_words_used : float;
}

let good_word lab =
  let rng = Lab.rng lab "goodword" in
  let size = world_size lab in
  let tokenizer = Lab.tokenizer lab in
  let train = Lab.corpus lab ~name:"goodword/train" ~size ~spam_fraction:0.5 in
  let filter = Poison.base_filter tokenizer train in
  let good_words = Good_word.hammiest_tokens filter ~limit:300 in
  let probes =
    Array.init 40 (fun _ -> Generator.spam (Lab.config lab) rng)
  in
  List.map
    (fun words_budget ->
      let outcomes =
        Array.map
          (fun spam ->
            Good_word.evade filter spam ~good_words ~max_words:words_budget)
          probes
      in
      let evaded =
        Array.to_list outcomes
        |> List.filter (fun r -> r.Good_word.verdict <> Label.Spam_v)
      in
      let as_ham =
        List.filter (fun r -> r.Good_word.verdict = Label.Ham_v) evaded
      in
      let words_used =
        match evaded with
        | [] -> 0.0
        | _ ->
            Summary.mean
              (Array.of_list
                 (List.map
                    (fun r -> float_of_int r.Good_word.words_added)
                    evaded))
      in
      {
        words_budget;
        evasion_rate =
          100.0 *. float_of_int (List.length evaded)
          /. float_of_int (Array.length probes);
        as_ham_rate =
          100.0 *. float_of_int (List.length as_ham)
          /. float_of_int (Array.length probes);
        mean_words_used = words_used;
      })
    [ 0; 10; 25; 50; 100; 200 ]

let render_good_word points =
  "Good-word evasion (Exploratory Integrity baseline, cf. Section 6):\n\
   pad spam with the filter's hammiest tokens until it slips through\n\n"
  ^ Table.render
      ~header:
        [ "word budget"; "evasion % (not spam)"; "as ham %"; "mean words used" ]
      ~rows:
        (List.map
           (fun p ->
             [
               string_of_int p.words_budget;
               Table.f2 p.evasion_rate;
               Table.f2 p.as_ham_rate;
               Table.f2 p.mean_words_used;
             ])
           points)

(* ------------------------------------------------------------------ *)
(* Stealth: split attacks vs size screening vs RONI (§2.2, §4.2)       *)

type stealth_point = {
  chunk_size : int;
  attack_emails : int;
  email_size_percentile : float;
  flagged_by_size_filter : float;
  roni_detection : float;
  ham_misclassified : float;
}

let stealth lab =
  let rng = Lab.rng lab "stealth" in
  let size = world_size lab in
  let tokenizer = Lab.tokenizer lab in
  let train = Lab.corpus lab ~name:"stealth/train" ~size ~spam_fraction:0.5 in
  let test =
    Lab.corpus lab ~name:"stealth/test" ~size:(size / 5) ~spam_fraction:0.5
  in
  let base = Poison.base_filter tokenizer train in
  let words = Lab.usenet_top lab ~size:19_000 in
  let n = Array.length words in
  let copies = max 1 (Poison.attack_count ~train_size:size ~fraction:0.01) in
  let corpus_sizes =
    Array.map (fun (e : Dataset.example) -> e.Dataset.raw_token_count) train
  in
  let p99 =
    Spamlab_stats.Summary.quantile
      (Array.map float_of_int corpus_sizes)
      0.99
  in
  List.map
    (fun chunk_size ->
      let chunk_size = min chunk_size n in
      let chunk_list =
        Spamlab_core.Split_attack.chunks ~words ~chunk_size
      in
      let poisoned = Spamlab_spambayes.Filter.copy base in
      Spamlab_core.Split_attack.train poisoned tokenizer ~words ~chunk_size
        ~copies;
      let confusion =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples poisoned test)
      in
      (* RONI-screen a sample of distinct chunks. *)
      let sample_count = min 5 (Array.length chunk_list) in
      let rejected = ref 0 in
      for i = 0 to sample_count - 1 do
        let payload, _ =
          Dataset.tokenize_ids tokenizer
            (Spamlab_core.Attack_email.make
               ~words:(Array.to_list chunk_list.(i)))
        in
        if
          (Spamlab_core.Roni.assess rng ~pool:train ~candidate:payload)
            .Spamlab_core.Roni.rejected
        then incr rejected
      done;
      {
        chunk_size;
        attack_emails = copies * Array.length chunk_list;
        email_size_percentile =
          Spamlab_core.Split_attack.size_percentile ~corpus_sizes chunk_size;
        flagged_by_size_filter =
          (if float_of_int chunk_size > p99 then 100.0 else 0.0);
        roni_detection =
          100.0 *. float_of_int !rejected /. float_of_int sample_count;
        ham_misclassified =
          100.0 *. Confusion.ham_misclassified_rate confusion;
      })
    [ n; 5_000; 1_000; 250 ]

let render_stealth points =
  "Stealth (Sections 2.2 / 4.2): split the dictionary attack into\n\
   normal-sized emails at a constant total token budget\n\n"
  ^ Table.render
      ~header:
        [
          "words/email"; "emails sent"; "size percentile";
          "caught by p99 size screen %"; "caught by RONI %";
          "ham damage %";
        ]
      ~rows:
        (List.map
           (fun p ->
             [
               string_of_int p.chunk_size;
               string_of_int p.attack_emails;
               Table.f2 p.email_size_percentile;
               Table.f2 p.flagged_by_size_filter;
               Table.f2 p.roni_detection;
               Table.f2 p.ham_misclassified;
             ])
           points)
  ^ "\n\
     Splitting trades messages for stealth: smaller attack emails blend\n\
     into normal sizes AND individually fall below the RONI impact\n\
     threshold, while cumulative damage at the same token budget\n\
     degrades only gradually - the Section 2.2 arms race in one table.\n"

(* ------------------------------------------------------------------ *)
(* Value of attacker information (§3.4 constrained attacks)            *)

type budget_point = {
  budget : int;
  source : string;
  ham_as_spam : float;
  ham_misclassified : float;
}

let information_value lab =
  let rng = Lab.rng lab "information-value" in
  let size = world_size lab in
  let tokenizer = Lab.tokenizer lab in
  let train =
    Lab.corpus lab ~name:"information-value/train" ~size ~spam_fraction:0.5
  in
  let test =
    Lab.corpus lab ~name:"information-value/test" ~size:(size / 5)
      ~spam_fraction:0.5
  in
  let base = Poison.base_filter tokenizer train in
  let count = Poison.attack_count ~train_size:size ~fraction:0.01 in
  let ham_model = (Lab.config lab).Generator.ham_model in
  let sampled_estimate =
    Spamlab_core.Informed_attack.estimate_from_sample rng
      ~sample:(fun rng -> Generator.ham (Lab.config lab) rng)
      ~messages:200 ~tokenizer
  in
  let sources budget =
    [
      ( "informed-perfect",
        Spamlab_core.Informed_attack.of_language_model ham_model ~budget );
      ( "informed-sampled",
        Spamlab_core.Informed_attack.select sampled_estimate ~budget );
      ("usenet", Lab.usenet_top lab ~size:budget);
      ("aspell", Lab.aspell lab ~size:budget);
    ]
  in
  List.concat_map
    (fun budget ->
      List.map
        (fun (source, words) ->
          let payload =
            Attack.payload tokenizer (Attack.make ~name:source ~words)
          in
          let poisoned = Poison.poisoned base ~payload ~count in
          let confusion =
            Poison.confusion_of_scores Options.default
              (Poison.score_examples poisoned test)
          in
          {
            budget;
            source;
            ham_as_spam = 100.0 *. Confusion.ham_as_spam_rate confusion;
            ham_misclassified =
              100.0 *. Confusion.ham_misclassified_rate confusion;
          })
        (sources budget))
    [ 1_000; 5_000; 10_000; 25_000; 50_000 ]

let render_information_value points =
  "Value of attacker information (Section 3.4): equal word budgets,\n\
   different knowledge of the victim's word distribution, 1% control\n\n"
  ^ Table.render
      ~header:[ "budget"; "source"; "ham->spam %"; "ham->spam|unsure %" ]
      ~rows:
        (List.map
           (fun p ->
             [
               string_of_int p.budget; p.source; Table.f2 p.ham_as_spam;
               Table.f2 p.ham_misclassified;
             ])
           points)

(* ------------------------------------------------------------------ *)
(* Cross-tokenizer transfer (§7 / §1 fn. 1)                            *)

type tokenizer_point = {
  tokenizer_name : string;
  clean_ham_misclassified : float;
  clean_spam_misclassified : float;
  attacked_ham_as_spam : float;
  attacked_ham_misclassified : float;
}

let tokenizer_comparison lab =
  let size = world_size lab in
  let train_messages =
    Lab.corpus_messages lab ~name:"tokenizers/train" ~size ~spam_fraction:0.5
  in
  let test_messages =
    Lab.corpus_messages lab ~name:"tokenizers/test" ~size:(size / 5)
      ~spam_fraction:0.5
  in
  let attack_words = Lab.usenet_top lab ~size:19_000 in
  let count = Poison.attack_count ~train_size:size ~fraction:0.01 in
  List.map
    (fun (tokenizer_name, tokenizer) ->
      let train = Dataset.of_labeled tokenizer train_messages in
      let test = Dataset.of_labeled tokenizer test_messages in
      let base = Poison.base_filter tokenizer train in
      let payload =
        Attack.payload tokenizer (Attack.make ~name:"usenet" ~words:attack_words)
      in
      let poisoned = Poison.poisoned base ~payload ~count in
      let clean =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples base test)
      in
      let attacked =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples poisoned test)
      in
      {
        tokenizer_name;
        clean_ham_misclassified =
          100.0 *. Confusion.ham_misclassified_rate clean;
        clean_spam_misclassified =
          100.0 *. Confusion.spam_misclassified_rate clean;
        attacked_ham_as_spam = 100.0 *. Confusion.ham_as_spam_rate attacked;
        attacked_ham_misclassified =
          100.0 *. Confusion.ham_misclassified_rate attacked;
      })
    Spamlab_tokenizer.Tokenizer.all

let render_tokenizer_comparison points =
  "Cross-filter transfer (Section 7): the same learner behind three\n\
   tokenization styles, same corpus, same 1% usenet dictionary attack\n\n"
  ^ Table.render
      ~header:
        [
          "tokenizer"; "clean ham miscls %"; "clean spam miscls %";
          "attacked ham->spam %"; "attacked ham miscls %";
        ]
      ~rows:
        (List.map
           (fun p ->
             [
               p.tokenizer_name;
               Table.f2 p.clean_ham_misclassified;
               Table.f2 p.clean_spam_misclassified;
               Table.f2 p.attacked_ham_as_spam;
               Table.f2 p.attacked_ham_misclassified;
             ])
           points)

(* ------------------------------------------------------------------ *)
(* RONI parameter sweep (§5.1's announced future work)                 *)

type roni_cell = {
  validation_size : int;
  threshold : float;
  detection_rate : float;
  false_positive_rate : float;
}

let roni_sweep lab =
  let rng = Lab.rng lab "roni-sweep" in
  let size = world_size lab in
  let tokenizer = Lab.tokenizer lab in
  let pool = Lab.corpus lab ~name:"roni-sweep/pool" ~size ~spam_fraction:0.5 in
  let payload =
    Attack.payload tokenizer
      (Attack.make ~name:"usenet" ~words:(Lab.usenet_top lab ~size:19_000))
  in
  let benign =
    Array.init 20 (fun _ ->
        (Dataset.of_message tokenizer Label.Spam
           (Generator.spam (Lab.config lab) rng))
          .Dataset.ids)
  in
  let repetitions = 5 in
  List.concat_map
    (fun validation_size ->
      List.map
        (fun threshold ->
          let config =
            { Roni.default_config with Roni.validation_size; threshold }
          in
          let rejected_of candidate =
            (Roni.assess ~config rng ~pool ~candidate).Roni.rejected
          in
          let detections = ref 0 in
          for _ = 1 to repetitions do
            if rejected_of payload then incr detections
          done;
          let false_positives =
            Array.fold_left
              (fun acc candidate ->
                if rejected_of candidate then acc + 1 else acc)
              0 benign
          in
          {
            validation_size;
            threshold;
            detection_rate =
              100.0 *. float_of_int !detections /. float_of_int repetitions;
            false_positive_rate =
              100.0 *. float_of_int false_positives
              /. float_of_int (Array.length benign);
          })
        [ 3.0; 5.0; 8.0 ])
    [ 25; 50; 100 ]

let render_roni_sweep cells =
  "RONI parameter study (the larger experiment Section 5.1 plans):\n\
   detection of usenet dictionary-attack emails vs false positives on\n\
   ordinary spam, across validation sizes and rejection thresholds\n\n"
  ^ Table.render
      ~header:[ "validation size"; "threshold"; "detection %"; "false positive %" ]
      ~rows:
        (List.map
           (fun c ->
             [
               string_of_int c.validation_size;
               Table.f2 c.threshold;
               Table.f2 c.detection_rate;
               Table.f2 c.false_positive_rate;
             ])
           cells)

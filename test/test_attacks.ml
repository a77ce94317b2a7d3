(* Tests for the attack implementations: taxonomy, attack-email
   construction, dictionary and focused attacks, and the §3.4 expected
   score under attack. *)

open Spamlab_core
open Spamlab_stats
module Label = Spamlab_spambayes.Label
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Classify = Spamlab_spambayes.Classify
module Message = Spamlab_email.Message
module Header = Spamlab_email.Header
module Tokenizer = Spamlab_tokenizer.Tokenizer

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Token counts by string, for fixtures: the oracle's lookup through
   [Intern.find], which never interns. *)
let spam_count = Spamlab_oracle.By_string.spam_count
let ham_count = Spamlab_oracle.By_string.ham_count

(* A copy of [filter] poisoned with [count] copies of [attack]'s email,
   as the dictionary experiments train it ([Poison.poisoned] over the
   attack's payload). *)
let dictionary_poisoned filter attack ~count =
  Spamlab_eval.Poison.poisoned filter ~count
    ~payload:(Dictionary_attack.payload Tokenizer.spambayes attack)

(* f(w) of a token string under a filter's options and db. *)
let token_score filter w =
  Spamlab_oracle.By_string.smoothed (Filter.options filter) (Filter.db filter) w

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)

let taxonomy_tests =
  [
    test_case "paper attacks sit in the right cells" (fun () ->
        let d = Taxonomy.dictionary_attack in
        check_bool "causative" true (d.Taxonomy.influence = Taxonomy.Causative);
        check_bool "availability" true
          (d.Taxonomy.violation = Taxonomy.Availability);
        check_bool "indiscriminate" true
          (d.Taxonomy.specificity = Taxonomy.Indiscriminate));
    test_case "describe" (fun () ->
        check_str "dictionary" "Causative Availability Indiscriminate attack"
          (Taxonomy.describe Taxonomy.dictionary_attack));
  ]

(* ------------------------------------------------------------------ *)
(* Attack_email                                                        *)

let attack_email_tests =
  [
    test_case "body tokenizes back to exactly the payload words" (fun () ->
        let words = [ "alpha"; "beta"; "gamma"; "longishword" ] in
        let msg = Attack_email.make ~words in
        let tokens = Tokenizer.unique_tokens Tokenizer.spambayes msg in
        Alcotest.(check (array string))
          "tokens"
          (Array.of_list (List.sort_uniq compare words))
          tokens);
    test_case "empty header on plain attack emails" (fun () ->
        let msg = Attack_email.make ~words:[ "abc" ] in
        check_bool "no headers" true
          (Header.equal Header.empty (Message.headers msg)));
    test_case "lines wrap at the configured width" (fun () ->
        let words = List.init 200 (fun i -> "word" ^ string_of_int i) in
        let body = Attack_email.body_of_words words in
        List.iter
          (fun line ->
            check_bool "width" true (String.length line <= 72))
          (String.split_on_char '\n' body));
    test_case "make_with_header wears the stolen header" (fun () ->
        let header = Header.of_list [ ("Subject", "stolen") ] in
        let msg = Attack_email.make_with_header ~header ~words:[ "abc" ] in
        check_bool "subject" true (Message.subject msg = Some "stolen"));
    qtest "arbitrary clean word lists round-trip through tokenization"
      QCheck2.Gen.(
        list_size (int_range 1 60) (int_range 0 100_000))
      (fun indices ->
        let words = List.map Spamlab_corpus.Wordgen.word indices in
        let msg = Attack_email.make ~words in
        let tokens = Tokenizer.unique_tokens Tokenizer.spambayes msg in
        Array.to_list tokens = List.sort_uniq compare words);
    test_case "attack payload ids are the interned tokens of the attack mail"
      (fun () ->
        let module Intern = Spamlab_spambayes.Intern in
        let id_set ids = List.sort_uniq compare (Array.to_list ids) in
        let reference tokenizer msg =
          id_set (Intern.intern_array (Tokenizer.unique_tokens tokenizer msg))
        in
        let words = Spamlab_corpus.Wordgen.words 0 300 in
        List.iter
          (fun (name, tokenizer) ->
            let a = Dictionary_attack.make ~name:"t" ~words in
            Alcotest.(check (list int))
              (name ^ " dictionary")
              (reference tokenizer (Dictionary_attack.email a))
              (id_set (Dictionary_attack.payload tokenizer a));
            (* Split mail trains each chunk's ids [copies] times. *)
            let expected = Hashtbl.create 512 in
            Array.iter
              (fun chunk ->
                List.iter
                  (fun id ->
                    let n = Option.value ~default:0 (Hashtbl.find_opt expected id) in
                    Hashtbl.replace expected id (n + 3))
                  (reference tokenizer
                     (Attack_email.make ~words:(Array.to_list chunk))))
              (Split_attack.chunks ~words ~chunk_size:40);
            let filter = Filter.create () in
            Split_attack.train filter tokenizer ~words ~chunk_size:40 ~copies:3;
            Alcotest.(check (list (pair int int)))
              (name ^ " split")
              (List.sort compare
                 (Hashtbl.fold (fun id n acc -> (id, n) :: acc) expected []))
              (List.sort compare
                 (Token_db.fold
                    (fun acc id ~spam ~ham:_ -> (id, spam) :: acc)
                    [] (Filter.db filter)));
            let plan =
              Pseudospam_attack.craft (Rng.create 5)
                ~campaign:(Array.sub words 0 50)
                ~camouflage:(Array.sub words 50 100) ~camouflage_fraction:0.5
                ~count:1
            in
            let email = List.hd plan.Pseudospam_attack.emails in
            Alcotest.(check (list int))
              (name ^ " pseudospam")
              (reference tokenizer email)
              (id_set
                 (fst (Spamlab_corpus.Dataset.tokenize_ids tokenizer email))))
          Tokenizer.all);
  ]

(* ------------------------------------------------------------------ *)
(* Dictionary attack                                                   *)

let dictionary_tests =
  [
    test_case "make rejects empty word lists" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Dictionary_attack.make: empty word list")
          (fun () -> ignore (Dictionary_attack.make ~name:"x" ~words:[||])));
    test_case "accessors" (fun () ->
        let a =
          Dictionary_attack.make ~name:"test" ~words:[| "aaa"; "bbb" |]
        in
        check_str "name" "test" (Dictionary_attack.name a);
        check_int "count" 2 (Dictionary_attack.word_count a);
        check_bool "taxonomy" true
          (Dictionary_attack.taxonomy = Taxonomy.dictionary_attack));
    test_case "payload covers the whole word list" (fun () ->
        let words = Spamlab_corpus.Wordgen.words 0 500 in
        let a = Dictionary_attack.make ~name:"t" ~words in
        let payload = Dictionary_attack.payload Tokenizer.spambayes a in
        check_int "all words" 500 (Array.length payload));
    test_case "emails are identical and carry no headers" (fun () ->
        let a = Dictionary_attack.make ~name:"t" ~words:[| "abc"; "def" |] in
        match Dictionary_attack.emails a ~count:3 with
        | [ m1; m2; m3 ] ->
            check_bool "equal" true (Message.equal m1 m2 && Message.equal m2 m3);
            check_bool "no headers" true
              (Header.equal Header.empty (Message.headers m1))
        | _ -> Alcotest.fail "wrong count");
    test_case "train adds count spam messages in one pass" (fun () ->
        let filter = Filter.create () in
        Filter.train_tokens filter Label.Ham [| "abc" |];
        let a = Dictionary_attack.make ~name:"t" ~words:[| "abc"; "def" |] in
        let db = Filter.db (dictionary_poisoned filter a ~count:25) in
        check_int "nspam" 25 (Token_db.nspam db);
        check_int "abc spam count" 25 (spam_count db "abc");
        check_int "abc ham count" 1 (ham_count db "abc"));
    test_case "poisoning raises scores of covered words" (fun () ->
        let filter = Filter.create () in
        for _ = 1 to 10 do
          Filter.train_tokens filter Label.Ham [| "meeting"; "budget" |];
          Filter.train_tokens filter Label.Spam [| "pills"; "cheap" |]
        done;
        let before = token_score filter "meeting" in
        let a =
          Dictionary_attack.make ~name:"t" ~words:[| "meeting"; "budget" |]
        in
        let after =
          token_score (dictionary_poisoned filter a ~count:10) "meeting"
        in
        check_bool "score rose" true (after > before));
    test_case "raw_token_count counts the stream" (fun () ->
        let a = Dictionary_attack.make ~name:"t" ~words:[| "abc"; "def"; "ghi" |] in
        check_int "three" 3
          (Dictionary_attack.raw_token_count Tokenizer.spambayes a));
  ]

(* ------------------------------------------------------------------ *)
(* Focused attack                                                      *)

let target =
  Message.make
    ~headers:
      (Header.of_list
         [ ("Subject", "contract bid deadline");
           ("From", "partner@corp.example") ])
    "our final bid for the acquisition contract is ready for review"

let spam_header = Header.of_list [ ("Subject", "CHEAP PILLS"); ("From", "spam@evil.biz") ]

let focused_tests =
  [
    test_case "target_words deduplicates in order" (fun () ->
        let words = Focused_attack.target_words target in
        check_bool "subject first" true (List.hd words = "contract");
        check_int "distinct occurrences of contract" 1
          (List.length (List.filter (( = ) "contract") words));
        check_bool "body words present" true (List.mem "acquisition" words));
    test_case "p=1 guesses everything, p=0 nothing" (fun () ->
        let rng = Rng.create 1 in
        let all =
          Focused_attack.craft rng ~target ~p:1.0 ~count:2
            ~header_pool:[| spam_header |]
        in
        check_int "missed none" 0 (List.length all.Focused_attack.missed);
        let none =
          Focused_attack.craft rng ~target ~p:0.0 ~count:2
            ~header_pool:[| spam_header |]
        in
        check_int "guessed none" 0 (List.length none.Focused_attack.guessed));
    test_case "guessed and missed partition the target words" (fun () ->
        let rng = Rng.create 2 in
        let plan =
          Focused_attack.craft rng ~target ~p:0.5 ~count:1
            ~header_pool:[| spam_header |]
        in
        let together =
          List.sort compare
            (plan.Focused_attack.guessed @ plan.Focused_attack.missed)
        in
        check_bool "partition" true
          (together = List.sort compare (Focused_attack.target_words target)));
    test_case "emails wear headers from the pool" (fun () ->
        let rng = Rng.create 3 in
        let plan =
          Focused_attack.craft rng ~target ~p:0.5 ~count:5
            ~header_pool:[| spam_header |]
        in
        check_int "count" 5 (List.length plan.Focused_attack.emails);
        List.iter
          (fun m ->
            check_bool "stolen subject" true
              (Message.subject m = Some "CHEAP PILLS"))
          plan.Focused_attack.emails);
    test_case "craft validates arguments" (fun () ->
        let rng = Rng.create 4 in
        Alcotest.check_raises "bad p"
          (Invalid_argument "Focused_attack.craft: p outside [0,1]") (fun () ->
            ignore
              (Focused_attack.craft rng ~target ~p:1.5 ~count:1
                 ~header_pool:[| spam_header |]));
        Alcotest.check_raises "no headers"
          (Invalid_argument "Focused_attack.craft: empty header pool")
          (fun () ->
            ignore
              (Focused_attack.craft rng ~target ~p:0.5 ~count:1
                 ~header_pool:[||])));
    test_case "training raises guessed-token scores, not missed ones"
      (fun () ->
        let filter = Filter.create () in
        (* Background inbox so the filter has mass. *)
        for i = 1 to 20 do
          Filter.train_tokens filter Label.Ham
            [| "meeting"; "budget"; "note" ^ string_of_int i |];
          Filter.train_tokens filter Label.Spam
            [| "pills"; "cheap"; "junk" ^ string_of_int i |]
        done;
        let rng = Rng.create 5 in
        let plan =
          Focused_attack.craft rng ~target ~p:0.5 ~count:50
            ~header_pool:[| spam_header |]
        in
        let before w = token_score filter w in
        let scores_before =
          List.map (fun w -> (w, before w)) (Focused_attack.target_words target)
        in
        Focused_attack.train filter plan;
        List.iter
          (fun (w, b) ->
            let a = token_score filter w in
            if List.mem w plan.Focused_attack.guessed then
              check_bool ("guessed " ^ w) true (a > b)
            else
              check_bool ("missed " ^ w) true (a <= b +. 1e-12))
          scores_before);
    test_case "enough attack emails flip the target" (fun () ->
        let filter = Filter.create () in
        for i = 1 to 50 do
          Filter.train_tokens filter Label.Ham
            [| "meeting"; "budget"; "review"; "note" ^ string_of_int i |];
          Filter.train_tokens filter Label.Spam
            [| "pills"; "cheap"; "junk" ^ string_of_int i |]
        done;
        let before = (Filter.classify filter target).Classify.verdict in
        let rng = Rng.create 6 in
        let plan =
          Focused_attack.craft rng ~target ~p:1.0 ~count:200
            ~header_pool:[| spam_header |]
        in
        Focused_attack.train filter plan;
        let after = (Filter.classify filter target).Classify.verdict in
        check_bool "was not spam" true (before <> Label.Spam_v);
        check_bool "now spam" true (after = Label.Spam_v));
    qtest "guess rate tracks p"
      QCheck2.Gen.(float_range 0.1 0.9)
      ~count:30
      (fun p ->
        let rng = Rng.create 7 in
        (* A big synthetic target gives the law of large numbers room. *)
        let words =
          String.concat " " (Array.to_list (Spamlab_corpus.Wordgen.words 0 400))
        in
        let big_target = Message.make words in
        let plan =
          Focused_attack.craft rng ~target:big_target ~p ~count:0
            ~header_pool:[||]
        in
        let guessed = float_of_int (List.length plan.Focused_attack.guessed) in
        Float.abs ((guessed /. 400.0) -. p) < 0.15);
  ]

(* ------------------------------------------------------------------ *)
(* Informed (budget-constrained) attack                                *)

let informed_tests =
  [
    test_case "select keeps the highest-probability words" (fun () ->
        let probs =
          [| ("low", 0.1); ("high", 0.5); ("mid", 0.3); ("zero", 0.0) |]
        in
        Alcotest.(check (array string))
          "top two" [| "high"; "mid" |]
          (Informed_attack.select probs ~budget:2));
    test_case "select never includes zero-probability words" (fun () ->
        let probs = [| ("a", 0.2); ("never", 0.0); ("b", 0.1) |] in
        let selected = Informed_attack.select probs ~budget:10 in
        check_int "only positive" 2 (Array.length selected);
        check_bool "no zero" false (Array.mem "never" selected));
    test_case "select breaks probability ties alphabetically" (fun () ->
        let probs = [| ("bbb", 0.2); ("aaa", 0.2); ("ccc", 0.2) |] in
        Alcotest.(check (array string))
          "sorted ties" [| "aaa"; "bbb" |]
          (Informed_attack.select probs ~budget:2));
    test_case "select validates the budget" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Informed_attack.select: negative budget")
          (fun () ->
            ignore (Informed_attack.select [| ("a", 0.1) |] ~budget:(-1))));
    test_case "of_language_model takes the distribution head" (fun () ->
        let vocab =
          Spamlab_corpus.Vocabulary.create
            ~sizes:
              {
                Spamlab_corpus.Vocabulary.shared = 100;
                ham_specific = 50;
                spam_specific = 50;
                colloquial = 20;
                rare_standard = 100;
                rare_nonstandard = 100;
              }
            ~seed:3 ()
        in
        let model = Spamlab_corpus.Language_model.ham vocab in
        let selected = Informed_attack.of_language_model model ~budget:30 in
        check_int "budget honored" 30 (Array.length selected);
        (* Every selected word must outweigh every unselected one. *)
        let support = Spamlab_corpus.Language_model.support model in
        let selected_set = Array.to_list selected in
        let min_selected =
          List.fold_left
            (fun acc w ->
              Float.min acc (Spamlab_corpus.Language_model.word_prob model w))
            infinity selected_set
        in
        Array.iter
          (fun w ->
            if not (List.mem w selected_set) then
              check_bool ("dominates " ^ w) true
                (Spamlab_corpus.Language_model.word_prob model w
                <= min_selected +. 1e-12))
          support);
    test_case "estimate_from_sample measures document frequencies" (fun () ->
        let rng = Rng.create 9 in
        let sample _rng =
          Spamlab_email.Message.make "always sometimes"
        in
        (* "always" and "sometimes" appear in every sampled message. *)
        let freqs =
          Informed_attack.estimate_from_sample rng ~sample ~messages:10
            ~tokenizer:Tokenizer.spambayes
        in
        let get w =
          match Array.to_list freqs |> List.assoc_opt w with
          | Some f -> f
          | None -> Alcotest.fail ("missing " ^ w)
        in
        Alcotest.(check (float 1e-9)) "always" 1.0 (get "always");
        Alcotest.(check (float 1e-9)) "sometimes" 1.0 (get "sometimes"));
    test_case "estimate_from_sample validates message count" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Informed_attack.estimate_from_sample: messages <= 0")
          (fun () ->
            ignore
              (Informed_attack.estimate_from_sample (Rng.create 1)
                 ~sample:(fun _ -> Spamlab_email.Message.make "x")
                 ~messages:0 ~tokenizer:Tokenizer.spambayes)));
  ]

(* ------------------------------------------------------------------ *)
(* Split (stealth) attack                                              *)

let split_tests =
  [
    test_case "chunks partition the word list" (fun () ->
        let words = Spamlab_corpus.Wordgen.words 0 103 in
        let chunks = Split_attack.chunks ~words ~chunk_size:25 in
        check_int "chunk count" 5 (Array.length chunks);
        let total = Array.fold_left (fun acc c -> acc + Array.length c) 0 chunks in
        check_int "covers all words" 103 total;
        let merged =
          Array.to_list chunks |> List.concat_map Array.to_list
          |> List.sort_uniq compare
        in
        check_int "no duplicates" 103 (List.length merged));
    test_case "round-robin spreads the head" (fun () ->
        let words = Spamlab_corpus.Wordgen.words 0 100 in
        let chunks = Split_attack.chunks ~words ~chunk_size:25 in
        (* The first four ranked words land in four distinct chunks. *)
        Array.iteri
          (fun i chunk -> check_bool "head word" true (chunk.(0) = words.(i)))
          chunks);
    test_case "chunks validates input" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Split_attack.chunks: empty word list") (fun () ->
            ignore (Split_attack.chunks ~words:[||] ~chunk_size:5));
        Alcotest.check_raises "bad size"
          (Invalid_argument "Split_attack.chunks: chunk_size must be positive")
          (fun () ->
            ignore
              (Split_attack.chunks ~words:[| "abc" |] ~chunk_size:0)));
    test_case "train matches the unsplit token budget" (fun () ->
        let words = Spamlab_corpus.Wordgen.words 0 60 in
        let split_filter = Filter.create () in
        Split_attack.train split_filter Tokenizer.spambayes ~words
          ~chunk_size:20 ~copies:4;
        let unsplit_filter =
          dictionary_poisoned (Filter.create ())
            (Dictionary_attack.make ~name:"u" ~words)
            ~count:4
        in
        (* Every word trained the same number of times; only the message
           count differs (12 chunks vs 4 full emails). *)
        Array.iter
          (fun w ->
            check_int w
              (spam_count (Filter.db unsplit_filter) w)
              (spam_count (Filter.db split_filter) w))
          words;
        check_int "split messages" 12 (Token_db.nspam (Filter.db split_filter));
        check_int "unsplit messages" 4
          (Token_db.nspam (Filter.db unsplit_filter)));
    test_case "size_percentile ranks against the corpus" (fun () ->
        let corpus_sizes = [| 10; 20; 30; 40 |] in
        Alcotest.(check (float 1e-9))
          "median-ish" 50.0
          (Split_attack.size_percentile ~corpus_sizes 25);
        Alcotest.(check (float 1e-9))
          "top" 100.0
          (Split_attack.size_percentile ~corpus_sizes 1000));
  ]

(* ------------------------------------------------------------------ *)
(* Expected score                                                      *)

(* The §3.4 objective E_{m∼p}[I(m)]: the mean indicator of [messages]
   under [filter]. *)
let mean_indicator filter messages =
  List.fold_left
    (fun acc m -> acc +. (Filter.classify filter m).Classify.indicator)
    0.0 messages
  /. float_of_int (List.length messages)

(* A copy of [filter] poisoned with [count] spam-trained emails carrying
   [words]; [filter] itself is not modified. *)
let poisoned filter ~words ~count =
  let copy = Filter.copy filter in
  let email = Attack_email.make ~words in
  for _ = 1 to count do
    Filter.train copy Label.Spam email
  done;
  copy

let expected_score_tests =
  let messages = List.init 20 (fun _ -> Message.make "meeting budget agenda") in
  [
    test_case "attack raises the expected score (Section 3.4)" (fun () ->
        let filter = Filter.create () in
        for i = 1 to 30 do
          Filter.train_tokens filter Label.Ham
            [| "meeting"; "budget"; "plan" ^ string_of_int i |];
          Filter.train_tokens filter Label.Spam [| "pills"; "cheap" |]
        done;
        let clean = mean_indicator filter messages in
        let attacked =
          mean_indicator
            (poisoned filter ~words:[ "meeting"; "budget"; "agenda" ] ~count:30)
            messages
        in
        check_bool "raised" true (attacked > clean);
        (* And the baseline filter must be untouched. *)
        Alcotest.(check (float 1e-12))
          "baseline intact" clean (mean_indicator filter messages));
    test_case "more attack words never hurt (monotonicity)" (fun () ->
        let filter = Filter.create () in
        for i = 1 to 30 do
          Filter.train_tokens filter Label.Ham
            [| "meeting"; "budget"; "agenda"; "plan" ^ string_of_int i |];
          Filter.train_tokens filter Label.Spam [| "pills" |]
        done;
        let small =
          mean_indicator (poisoned filter ~words:[ "meeting" ] ~count:30) messages
        in
        let large =
          mean_indicator
            (poisoned filter ~words:[ "meeting"; "budget"; "agenda" ] ~count:30)
            messages
        in
        check_bool "superset at least as strong" true (large >= small -. 1e-12));
  ]

(* ------------------------------------------------------------------ *)
(* Pseudospam (ham-labeled) attack                                     *)

let pseudospam_tests =
  let campaign = Spamlab_corpus.Wordgen.words 1000 50 in
  let camouflage = Spamlab_corpus.Wordgen.words 5000 500 in
  [
    test_case "craft validates" (fun () ->
        let rng = Rng.create 1 in
        Alcotest.check_raises "empty campaign"
          (Invalid_argument "Pseudospam_attack.craft: empty campaign vocabulary")
          (fun () ->
            ignore
              (Pseudospam_attack.craft rng ~campaign:[||] ~camouflage
                 ~camouflage_fraction:0.5 ~count:1));
        Alcotest.check_raises "bad fraction"
          (Invalid_argument
             "Pseudospam_attack.craft: camouflage_fraction outside [0,1)")
          (fun () ->
            ignore
              (Pseudospam_attack.craft rng ~campaign ~camouflage
                 ~camouflage_fraction:1.0 ~count:1)));
    test_case "camouflage fraction controls the mix" (fun () ->
        let rng = Rng.create 2 in
        let plan =
          Pseudospam_attack.craft rng ~campaign ~camouflage
            ~camouflage_fraction:0.5 ~count:3
        in
        check_int "campaign kept whole" 50
          (List.length plan.Pseudospam_attack.campaign_words);
        check_int "half camouflage" 50
          (List.length plan.Pseudospam_attack.camouflage_words);
        check_int "emails" 3 (List.length plan.Pseudospam_attack.emails);
        let none =
          Pseudospam_attack.craft rng ~campaign ~camouflage
            ~camouflage_fraction:0.0 ~count:1
        in
        check_int "no camouflage" 0
          (List.length none.Pseudospam_attack.camouflage_words));
    test_case "training as ham whitewashes campaign tokens" (fun () ->
        let filter = Filter.create () in
        for i = 1 to 20 do
          Filter.train_tokens filter Label.Ham
            [| "meeting"; "note" ^ string_of_int i |];
          Filter.train_tokens filter Label.Spam
            (Array.append [| "junk" ^ string_of_int i |] (Array.sub campaign 0 10))
        done;
        let probe = campaign.(0) in
        let before = token_score filter probe in
        check_bool "spammy before" true (before > 0.7);
        let rng = Rng.create 3 in
        let plan =
          Pseudospam_attack.craft rng ~campaign ~camouflage
            ~camouflage_fraction:0.3 ~count:30
        in
        List.iter (Filter.train filter Label.Ham) plan.Pseudospam_attack.emails;
        let after = token_score filter probe in
        check_bool "hammy after" true (after < before);
        check_int "nham grew" 50 (Token_db.nham (Filter.db filter)));
  ]

(* ------------------------------------------------------------------ *)
(* Good-word (exploratory) attack                                      *)

let good_word_tests =
  let trained_filter () =
    let filter = Filter.create () in
    for i = 1 to 20 do
      Filter.train_tokens filter Label.Ham
        [| "meeting"; "budget"; "review"; "note" ^ string_of_int i |];
      Filter.train_tokens filter Label.Spam
        [| "pills"; "cheap"; "offer"; "junk" ^ string_of_int i |]
    done;
    filter
  in
  [
    test_case "hammiest tokens are the recurring ham words" (fun () ->
        let filter = trained_filter () in
        let good = Good_word_attack.hammiest_tokens filter ~limit:3 in
        check_int "limit" 3 (List.length good);
        List.iter
          (fun w ->
            check_bool w true (List.mem w [ "meeting"; "budget"; "review" ]))
          good);
    test_case "hammiest tokens excludes unforgeable prefixed tokens" (fun () ->
        let filter = trained_filter () in
        Filter.train_tokens filter Label.Ham
          [| "subject:hello"; "from:addr:corp.example" |];
        Filter.train_tokens filter Label.Ham
          [| "subject:hello"; "from:addr:corp.example" |];
        let good = Good_word_attack.hammiest_tokens filter ~limit:10 in
        List.iter
          (fun w -> check_bool w false (String.contains w ':'))
          good);
    test_case "padding with good words evades the filter" (fun () ->
        let filter = trained_filter () in
        let spam =
          Spamlab_email.Message.make "pills cheap offer pills cheap offer"
        in
        check_bool "caught unpadded" true
          ((Filter.classify filter spam).Classify.verdict = Label.Spam_v);
        let good = Good_word_attack.hammiest_tokens filter ~limit:50 in
        let result =
          Good_word_attack.evade filter spam ~good_words:good ~max_words:50
        in
        check_bool "evaded" true (result.Good_word_attack.verdict <> Label.Spam_v);
        check_bool "used words" true (result.Good_word_attack.words_added > 0);
        (* The padded message still contains the original payload. *)
        let body = Spamlab_email.Message.body result.Good_word_attack.padded in
        check_bool "payload intact" true
          (String.length body > String.length "pills cheap offer"));
    test_case "zero budget leaves the message alone" (fun () ->
        let filter = trained_filter () in
        let spam = Spamlab_email.Message.make "pills cheap offer" in
        let result =
          Good_word_attack.evade filter spam ~good_words:[ "meeting" ]
            ~max_words:0
        in
        check_int "no words" 0 result.Good_word_attack.words_added;
        check_bool "still spam" true
          (result.Good_word_attack.verdict = Label.Spam_v));
    test_case "non-spam input returns immediately" (fun () ->
        let filter = trained_filter () in
        let ham = Spamlab_email.Message.make "meeting budget review" in
        let result =
          Good_word_attack.evade filter ham ~good_words:[ "meeting" ]
            ~max_words:100
        in
        check_int "no words" 0 result.Good_word_attack.words_added;
        check_bool "ham verdict" true
          (result.Good_word_attack.verdict = Label.Ham_v));
  ]

let () =
  Alcotest.run "attacks"
    [
      ("taxonomy", taxonomy_tests);
      ("attack_email", attack_email_tests);
      ("dictionary", dictionary_tests);
      ("focused", focused_tests);
      ("pseudospam", pseudospam_tests);
      ("good_word", good_word_tests);
      ("informed", informed_tests);
      ("split", split_tests);
      ("expected_score", expected_score_tests);
    ]

(* Tests for the evaluation library: confusion accounting, rendering,
   parameters, poisoning plumbing, the lab and the registry. *)

open Spamlab_eval
module Label = Spamlab_spambayes.Label
module Options = Spamlab_spambayes.Options
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Dataset = Spamlab_corpus.Dataset

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let test_case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Confusion                                                           *)

let confusion_tests =
  [
    test_case "counts and rates" (fun () ->
        let c = Confusion.create () in
        Confusion.add c Label.Ham Label.Ham_v;
        Confusion.add c Label.Ham Label.Unsure_v;
        Confusion.add c Label.Ham Label.Spam_v;
        Confusion.add c Label.Ham Label.Spam_v;
        Confusion.add c Label.Spam Label.Spam_v;
        Confusion.add c Label.Spam Label.Ham_v;
        Alcotest.(check (array int))
          "cells" [| 1; 1; 2; 1; 0; 1 |] (Confusion.cells c);
        check_int "ham as spam" 2 (Confusion.count c Label.Ham Label.Spam_v);
        check_float "ham->spam rate" 0.5 (Confusion.ham_as_spam_rate c);
        check_float "ham->unsure rate" 0.25 (Confusion.ham_as_unsure_rate c);
        check_float "ham misclassified" 0.75 (Confusion.ham_misclassified_rate c);
        check_float "spam->ham rate" 0.5 (Confusion.spam_as_ham_rate c);
        check_float "spam->unsure" 0.0 (Confusion.spam_as_unsure_rate c));
    test_case "empty matrix rates are 0" (fun () ->
        let c = Confusion.create () in
        check_float "ham rate" 0.0 (Confusion.ham_as_spam_rate c);
        check_float "spam rate" 0.0 (Confusion.spam_misclassified_rate c));
    test_case "merge sums cell-wise" (fun () ->
        let a = Confusion.create () in
        let b = Confusion.create () in
        Confusion.add a Label.Ham Label.Ham_v;
        Confusion.add b Label.Ham Label.Ham_v;
        Confusion.add b Label.Spam Label.Unsure_v;
        let m = Confusion.merge a b in
        check_int "ham-ham" 2 (Confusion.count m Label.Ham Label.Ham_v);
        check_int "spam-unsure" 1 (Confusion.count m Label.Spam Label.Unsure_v);
        (* Inputs are untouched. *)
        check_int "a intact" 1 (Confusion.count a Label.Ham Label.Ham_v));
    test_case "cells/of_cells round-trip" (fun () ->
        let c = Confusion.create () in
        Confusion.add c Label.Ham Label.Ham_v;
        Confusion.add c Label.Ham Label.Spam_v;
        Confusion.add c Label.Spam Label.Unsure_v;
        Confusion.add c Label.Spam Label.Spam_v;
        match Confusion.of_cells (Confusion.cells c) with
        | None -> Alcotest.fail "round-trip lost the matrix"
        | Some c' ->
            List.iter
              (fun gold ->
                List.iter
                  (fun v ->
                    check_int "cell" (Confusion.count c gold v)
                      (Confusion.count c' gold v))
                  [ Label.Ham_v; Label.Unsure_v; Label.Spam_v ])
              [ Label.Ham; Label.Spam ]);
    test_case "of_cells rejects bad shapes" (fun () ->
        check_bool "short" true (Confusion.of_cells [| 1; 2 |] = None);
        check_bool "negative" true
          (Confusion.of_cells [| 0; 0; -1; 0; 0; 0 |] = None));
  ]

(* ------------------------------------------------------------------ *)
(* Table and Plot                                                      *)

let table_tests =
  [
    test_case "render aligns columns" (fun () ->
        let s =
          Table.render ~header:[ "aa"; "b" ]
            ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ]
        in
        let lines = String.split_on_char '\n' s in
        (match lines with
        | header :: rule :: _ ->
            check_bool "rule dashes" true (String.for_all (( = ) '-') rule);
            check_bool "rule covers header" true
              (String.length rule >= String.length (String.trim header))
        | _ -> Alcotest.fail "too short");
        check_int "line count" 5 (List.length lines));
    test_case "render pads short rows" (fun () ->
        let s = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] in
        check_bool "no exception, has x" true (String.contains s 'x'));
    test_case "render rejects empty header" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Table.render: empty header") (fun () ->
            ignore (Table.render ~header:[] ~rows:[])));
    test_case "f2" (fun () -> check_str "f2" "1.50" (Table.f2 1.5));
  ]

let plot_tests =
  [
    test_case "line_chart shows series glyphs and legend" (fun () ->
        let s =
          Plot.line_chart ~x_label:"x" ~y_label:"y"
            [ ("first", [ (0.0, 0.0); (1.0, 1.0) ]);
              ("second", [ (0.0, 1.0); (1.0, 0.0) ]) ]
        in
        check_bool "glyph *" true (String.contains s '*');
        check_bool "glyph o" true (String.contains s 'o');
        check_bool "legend" true
          (String.length s > 0
          && Option.is_some
               (String.index_opt s '='));
    );
    test_case "line_chart with no data" (fun () ->
        check_str "empty" "(no data)\n"
          (Plot.line_chart ~x_label:"x" ~y_label:"y" [ ("e", []) ]));
    test_case "stacked_bars emits one row per entry" (fun () ->
        let s =
          Plot.stacked_bars ~title:"t" ~segments:[ "spam"; "unsure"; "ham" ]
            [ ("row1", [ 50.0; 25.0; 25.0 ]); ("row2", [ 0.0; 0.0; 100.0 ]) ]
        in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
        in
        check_int "rows + title" 3 (List.length lines));
  ]

(* ------------------------------------------------------------------ *)
(* Params                                                              *)

let params_tests =
  [
    test_case "paper scale matches Table 1" (fun () ->
        let d = Params.dictionary () in
        check_int "train" 10_000 d.Params.train_size;
        check_int "folds" 10 d.Params.folds;
        check_bool "fractions include 1%" true
          (List.mem 0.01 d.Params.attack_fractions);
        check_bool "fractions include baseline" true
          (List.mem 0.0 d.Params.attack_fractions);
        let f = Params.focused () in
        check_int "inbox" 5_000 f.Params.inbox_size;
        check_int "attack emails" 300 f.Params.attack_count;
        check_int "targets" 20 f.Params.targets;
        check_bool "probabilities" true
          (f.Params.guess_probabilities = [ 0.1; 0.3; 0.5; 0.9 ]);
        let r = Params.roni () in
        check_int "train 20" 20 r.Params.train_size;
        check_int "validation 50" 50 r.Params.validation_size;
        check_int "non-attack queries" 120 r.Params.non_attack_queries;
        let t = Params.threshold () in
        check_bool "quantiles" true (t.Params.quantiles = [ 0.05; 0.10 ]));
    test_case "scaling shrinks but respects minima" (fun () ->
        let d = Params.dictionary ~scale:0.01 () in
        check_bool "min train" true (d.Params.train_size >= 200);
        check_bool "min folds" true (d.Params.folds >= 3);
        let f = Params.focused ~scale:0.01 () in
        check_bool "min targets" true (f.Params.targets >= 5));
    test_case "scale above 1 does not shrink repetitions" (fun () ->
        let d = Params.dictionary ~scale:2.0 () in
        check_int "folds capped" 10 d.Params.folds;
        check_int "train doubled" 20_000 d.Params.train_size);
    test_case "table1 renders both scales" (fun () ->
        let s1 = Params.table1 () in
        check_bool "paper" true (String.length s1 > 100);
        let s2 = Params.table1 ~scale:0.5 () in
        check_bool "scaled note" true (String.length s2 > 100));
  ]

(* ------------------------------------------------------------------ *)
(* Poison                                                              *)

let tiny_examples =
  Array.init 40 (fun i ->
      let label = if i mod 2 = 0 then Label.Ham else Label.Spam in
      let tokens =
        match label with
        | Label.Ham -> [| "meeting"; "budget"; "uniq" ^ string_of_int i |]
        | Label.Spam -> [| "cheap"; "pills"; "uniq" ^ string_of_int i |]
      in
      {
        Dataset.label;
        ids = Spamlab_spambayes.Intern.intern_array tokens;
        raw_token_count = 3;
      })

let poison_tests =
  [
    test_case "attack_count reproduces the paper's 101" (fun () ->
        check_int "1% of 10000" 101
          (Poison.attack_count ~train_size:10_000 ~fraction:0.01);
        check_int "zero" 0 (Poison.attack_count ~train_size:10_000 ~fraction:0.0);
        check_int "10%" 1111
          (Poison.attack_count ~train_size:10_000 ~fraction:0.10));
    test_case "attack_count validates the fraction" (fun () ->
        Alcotest.check_raises "1.0"
          (Invalid_argument "Poison.attack_count: fraction must lie in [0,1)")
          (fun () -> ignore (Poison.attack_count ~train_size:10 ~fraction:1.0));
        Alcotest.check_raises "negative"
          (Invalid_argument "Poison.attack_count: fraction must lie in [0,1)")
          (fun () -> ignore (Poison.attack_count ~train_size:10 ~fraction:(-0.1)));
        Alcotest.check_raises "nan"
          (Invalid_argument "Poison.attack_count: fraction must lie in [0,1)")
          (fun () -> ignore (Poison.attack_count ~train_size:10 ~fraction:Float.nan)));
    test_case "attack_count refuses to overflow near fraction 1" (fun () ->
        (* n·f/(1−f) blows past max_int as f → 1, where int_of_float is
           undefined — must raise, not silently return garbage. *)
        let just_under_one = 1.0 -. epsilon_float in
        Alcotest.check_raises "overflow"
          (Invalid_argument "Poison.attack_count: attack volume overflows")
          (fun () ->
            ignore
              (Poison.attack_count ~train_size:10_000
                 ~fraction:just_under_one));
        (* Large-but-finite volumes still work. *)
        check_int "50%" 10_000
          (Poison.attack_count ~train_size:10_000 ~fraction:0.5));
    test_case "sweep equals one poisoned copy per grid point" (fun () ->
        let base =
          Poison.base_filter Spamlab_tokenizer.Tokenizer.spambayes tiny_examples
        in
        let payload =
          Spamlab_spambayes.Intern.intern_array
            [| "cheap"; "pills"; "meeting"; "unseen-token" |]
        in
        (* Deliberately unsorted counts: results must come back in input
           order. *)
        let counts = [ 50; 0; 7; 500 ] in
        let swept = Poison.sweep base ~payload ~counts tiny_examples in
        let naive =
          List.map
            (fun count ->
              Poison.score_examples
                (Poison.poisoned base ~payload ~count)
                tiny_examples)
            counts
        in
        check_bool "bit-identical scores" true (swept = naive);
        (* The sweep mutated nothing. *)
        check_int "base nspam intact" 20 (Token_db.nspam (Filter.db base)));
    test_case "base_filter trains everything" (fun () ->
        let f =
          Poison.base_filter Spamlab_tokenizer.Tokenizer.spambayes tiny_examples
        in
        check_int "nham" 20 (Token_db.nham (Filter.db f));
        check_int "nspam" 20 (Token_db.nspam (Filter.db f)));
    test_case "poisoned copies, never mutates the base" (fun () ->
        let base =
          Poison.base_filter Spamlab_tokenizer.Tokenizer.spambayes tiny_examples
        in
        let poisoned =
          Poison.poisoned base
            ~payload:(Spamlab_spambayes.Intern.intern_array [| "meeting"; "budget" |])
            ~count:50
        in
        check_int "base nspam" 20 (Token_db.nspam (Filter.db base));
        check_int "poisoned nspam" 70 (Token_db.nspam (Filter.db poisoned)));
    test_case "score_examples + confusion_of_scores coherent" (fun () ->
        let base =
          Poison.base_filter Spamlab_tokenizer.Tokenizer.spambayes tiny_examples
        in
        let scores = Poison.score_examples base tiny_examples in
        check_int "one score per example" 40 (Array.length scores);
        let c = Poison.confusion_of_scores Options.default scores in
        check_int "total" 40 (Array.fold_left ( + ) 0 (Confusion.cells c));
        (* On its own training data the filter separates the classes. *)
        let agree =
          Confusion.count c Label.Ham Label.Ham_v
          + Confusion.count c Label.Spam Label.Spam_v
        in
        check_bool "accuracy high" true (float_of_int agree /. 40.0 > 0.9));
  ]

(* ------------------------------------------------------------------ *)
(* Lab and Registry                                                    *)

(* An example's token strings, sorted: id values follow interning
   order, which is schedule-dependent. *)
let token_set (e : Dataset.example) =
  List.sort compare
    (Array.to_list (Array.map Spamlab_spambayes.Intern.to_string e.ids))

let lab_tests =
  [
    test_case "lab is deterministic in its seed" (fun () ->
        let a = Lab.create ~seed:5 ~scale:0.05 () in
        let b = Lab.create ~seed:5 ~scale:0.05 () in
        let ca = Lab.corpus a ~name:"x" ~size:20 ~spam_fraction:0.5 in
        let cb = Lab.corpus b ~name:"x" ~size:20 ~spam_fraction:0.5 in
        check_bool "same tokens" true
          (Array.for_all2 (fun e1 e2 -> token_set e1 = token_set e2) ca cb));
    test_case "word sources have requested sizes" (fun () ->
        let lab = Lab.create ~seed:1 ~scale:0.05 () in
        check_int "aspell" 5_000 (Array.length (Lab.aspell lab ~size:5_000));
        check_int "usenet" 4_000 (Array.length (Lab.usenet_top lab ~size:4_000));
        check_bool "optimal nonempty" true
          (Array.length (Lab.optimal_words lab) > 10_000));
    test_case "accessors" (fun () ->
        let lab = Lab.create ~seed:9 ~scale:0.3 () in
        Alcotest.(check (float 1e-12)) "scale" 0.3 (Lab.scale lab));
    test_case "corpus cache hit returns the same examples" (fun () ->
        let module Obs = Spamlab_obs.Obs in
        let lab = Lab.create ~seed:11 ~scale:0.05 () in
        Obs.enable_metrics ();
        Obs.reset ();
        Fun.protect ~finally:Obs.stop (fun () ->
            let c1 = Lab.corpus lab ~name:"cache" ~size:30 ~spam_fraction:0.5 in
            let c2 = Lab.corpus lab ~name:"cache" ~size:30 ~spam_fraction:0.5 in
            (* Fresh copies of one cached array: callers may shuffle
               independently, but the examples themselves are shared. *)
            check_bool "distinct arrays" false (c1 == c2);
            Array.iteri
              (fun i e1 -> check_bool "shared example" true (e1 == c2.(i)))
              c1;
            (* First call misses both the message and example caches;
               the second hits the example cache only. *)
            check_int "misses" 2 (Obs.counter_value "lab.corpus_cache.miss");
            check_int "hits" 1 (Obs.counter_value "lab.corpus_cache.hit")));
    test_case "corpus streams are independent per name" (fun () ->
        let lab = Lab.create ~seed:11 ~scale:0.05 () in
        let a = Lab.corpus lab ~name:"left" ~size:30 ~spam_fraction:0.5 in
        let b = Lab.corpus lab ~name:"right" ~size:30 ~spam_fraction:0.5 in
        check_bool "different worlds" false
          (Array.for_all2 (fun e1 e2 -> token_set e1 = token_set e2) a b));
    test_case "corpus and corpus_messages share the message cache" (fun () ->
        let module Obs = Spamlab_obs.Obs in
        let lab = Lab.create ~seed:11 ~scale:0.05 () in
        Obs.enable_metrics ();
        Obs.reset ();
        Fun.protect ~finally:Obs.stop (fun () ->
            let _ = Lab.corpus lab ~name:"shared" ~size:30 ~spam_fraction:0.5 in
            let _ =
              Lab.corpus_messages lab ~name:"shared" ~size:30 ~spam_fraction:0.5
            in
            check_int "one generation" 2
              (Obs.counter_value "lab.corpus_cache.miss");
            check_int "message-cache hit" 1
              (Obs.counter_value "lab.corpus_cache.hit")));
    test_case "usenet_top is safe under concurrent first use" (fun () ->
        (* Regression for the unsynchronized usenet_full memoization:
           racing domains must agree on the ranked word list. *)
        let lab = Lab.create ~seed:13 ~scale:0.05 () in
        let read () = Lab.usenet_top lab ~size:500 in
        let domains = List.init 4 (fun _ -> Domain.spawn read) in
        let results = List.map Domain.join domains in
        let expected = read () in
        List.iter
          (fun words -> check_bool "same ranking" true (words = expected))
          results);
  ]

let registry_tests =
  [
    test_case "all experiments present with unique ids" (fun () ->
        check_int "count" 20 (List.length Registry.all);
        let ids = Registry.ids in
        check_int "unique" (List.length ids)
          (List.length (List.sort_uniq compare ids));
        List.iter
          (fun id -> check_bool id true (Registry.find id <> None))
          [
            "table1"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "roni"; "tokens";
            "ablate-disc"; "ablate-band"; "ablate-smooth"; "ablate-coverage";
            "pseudospam"; "goodword"; "roni-sweep"; "timeline"; "tokenizers"; "budget"; "corpus"; "stealth";
          ]);
    test_case "find of unknown id is None" (fun () ->
        check_bool "none" true (Registry.find "fig99" = None));
    test_case "table1 experiment runs" (fun () ->
        match Registry.find "table1" with
        | None -> Alcotest.fail "missing"
        | Some e ->
            let lab = Lab.create ~seed:1 ~scale:0.05 () in
            check_bool "output" true
              (String.length (e.Registry.run lab) > 100));
  ]

(* ------------------------------------------------------------------ *)
(* Ablations and extensions                                            *)

let extension_tests =
  let lab = Lab.create ~seed:21 ~scale:0.05 () in
  [
    test_case "discriminator sweep produces a row per setting" (fun () ->
        let rows = Ablation.discriminator_sweep lab in
        check_int "rows" 4 (List.length rows);
        (* Tiny caps lose clean accuracy relative to the default. *)
        let by_setting s =
          List.find (fun (r : Ablation.row) -> r.Ablation.setting = s) rows
        in
        let tiny = by_setting "max_discriminators=10" in
        let default = by_setting "max_discriminators=150" in
        check_bool "tiny cap no better clean" true
          (tiny.Ablation.clean_ham_misclassified
           >= default.Ablation.clean_ham_misclassified));
    test_case "coverage sweep is monotone in attacker knowledge" (fun () ->
        let rows = Ablation.coverage_sweep lab in
        check_int "points" 5 (List.length rows);
        let misclassified = List.map (fun (_, _, m) -> m) rows in
        let rec non_decreasing = function
          | a :: (b :: _ as rest) -> a <= b +. 15.0 && non_decreasing rest
          | _ -> true
        in
        (* Allow sampling noise but demand the overall trend. *)
        check_bool "trend" true (non_decreasing misclassified);
        let last = List.nth misclassified 4 in
        let first = List.hd misclassified in
        check_bool "full knowledge worst" true (last > first));
    test_case "pseudospam delivers the campaign without ham damage" (fun () ->
        let points = Extension_exp.pseudospam lab in
        let baseline = List.hd points in
        let strongest = List.nth points (List.length points - 1) in
        check_bool "baseline blocked" true
          (baseline.Extension_exp.campaign_spam_as_ham < 10.0);
        check_bool "attack delivers" true
          (strongest.Extension_exp.campaign_spam_missed
           > baseline.Extension_exp.campaign_spam_missed);
        (* Relative check: whitewashing spam as ham must not hurt ham
           delivery (small-scale baselines carry some clean unsure). *)
        check_bool "ham unharmed" true
          (strongest.Extension_exp.ham_damage
          <= baseline.Extension_exp.ham_damage +. 3.0));
    test_case "good-word evasion grows with the budget" (fun () ->
        let points = Extension_exp.good_word lab in
        let rate b =
          (List.find
             (fun (p : Extension_exp.good_word_point) ->
               p.Extension_exp.words_budget = b)
             points)
            .Extension_exp.evasion_rate
        in
        check_bool "zero budget, no evasion" true (rate 0 = 0.0);
        check_bool "big budget evades more" true (rate 200 >= rate 10);
        check_bool "big budget evades a lot" true (rate 200 > 50.0));
    test_case "attack transfers across tokenizers" (fun () ->
        let points = Extension_exp.tokenizer_comparison lab in
        check_int "three filters" 3 (List.length points);
        List.iter
          (fun (p : Extension_exp.tokenizer_point) ->
            (* Tiny-scale corpora carry noticeable clean unsure mass;
               the property under test is the attack delta, below. *)
            check_bool
              (p.Extension_exp.tokenizer_name ^ " clean ok") true
              (p.Extension_exp.clean_ham_misclassified < 30.0);
            check_bool
              (p.Extension_exp.tokenizer_name ^ " attacked") true
              (p.Extension_exp.attacked_ham_misclassified
              > p.Extension_exp.clean_ham_misclassified +. 30.0))
          points);
    test_case "stealth splitting preserves coverage at lower visibility"
      (fun () ->
        let points = Extension_exp.stealth lab in
        check_int "points" 4 (List.length points);
        let first = List.hd points in
        let last = List.nth points (List.length points - 1) in
        (* The unsplit email is maximally visible; the smallest chunks
           blend in. *)
        check_bool "full email flagged" true
          (first.Extension_exp.flagged_by_size_filter = 100.0);
        check_bool "small chunks blend" true
          (last.Extension_exp.email_size_percentile
          < first.Extension_exp.email_size_percentile);
        check_bool "more emails when split" true
          (last.Extension_exp.attack_emails
          > first.Extension_exp.attack_emails);
        check_bool "damage still present" true
          (last.Extension_exp.ham_misclassified > 10.0));
    test_case "roni sweep covers the grid" (fun () ->
        let cells = Extension_exp.roni_sweep lab in
        check_int "grid" 9 (List.length cells);
        List.iter
          (fun (c : Extension_exp.roni_cell) ->
            check_bool "rates bounded" true
              (c.Extension_exp.detection_rate >= 0.0
              && c.Extension_exp.detection_rate <= 100.0
              && c.Extension_exp.false_positive_rate >= 0.0
              && c.Extension_exp.false_positive_rate <= 100.0))
          cells);
    test_case "render functions produce tables" (fun () ->
        check_bool "rows" true
          (String.length
             (Ablation.render_rows ~title:"t" (Ablation.band_sweep lab))
          > 50);
        check_bool "coverage" true
          (String.length (Ablation.render_coverage (Ablation.coverage_sweep lab))
          > 50));
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint: the resumable-sweep substrate.                          *)

let with_temp_ckpt f =
  let path = Filename.temp_file "spamlab" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let opened ~path ~params ~resume f =
  match Checkpoint.open_ ~path ~params ~resume with
  | Error e -> Alcotest.fail e
  | Ok ck -> Fun.protect ~finally:(fun () -> Checkpoint.close ck) (fun () -> f ck)

let with_lab ?checkpoint f =
  let lab = Lab.create ~seed:5 ~scale:0.05 ~jobs:2 ?checkpoint () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) (fun () -> f lab)

let encode = string_of_int
let decode _item s = int_of_string_opt s

let checkpoint_tests =
  [
    test_case "record, find, last-wins, resume" (fun () ->
        with_temp_ckpt (fun path ->
            opened ~path ~params:"seed=1" ~resume:false (fun ck ->
                check_bool "fresh" true (Checkpoint.find ck "a/0" = None);
                Checkpoint.record ck ~key:"a/0" ~value:"41";
                Checkpoint.record ck ~key:"a/1" ~value:"x y \"quoted\"\\n";
                check_bool "found" true (Checkpoint.find ck "a/0" = Some "41");
                (* Duplicate keys are legal; the last record wins. *)
                Checkpoint.record ck ~key:"a/0" ~value:"42";
                check_int "entries count distinct keys" 2
                  (Checkpoint.entries ck);
                check_bool "last wins" true
                  (Checkpoint.find ck "a/0" = Some "42"));
            opened ~path ~params:"seed=1" ~resume:true (fun ck ->
                check_int "restored" 2 (Checkpoint.entries ck);
                check_bool "value" true (Checkpoint.find ck "a/0" = Some "42");
                check_bool "escapes round-trip" true
                  (Checkpoint.find ck "a/1" = Some "x y \"quoted\"\\n"))));
    test_case "params mismatch is refused on resume" (fun () ->
        with_temp_ckpt (fun path ->
            opened ~path ~params:"seed=1" ~resume:false (fun _ -> ());
            check_bool "refused" true
              (Result.is_error
                 (Checkpoint.open_ ~path ~params:"seed=2" ~resume:true))));
    test_case "resume=false truncates; missing file resumes fresh" (fun () ->
        with_temp_ckpt (fun path ->
            opened ~path ~params:"p" ~resume:false (fun ck ->
                Checkpoint.record ck ~key:"k" ~value:"v");
            opened ~path ~params:"p" ~resume:false (fun ck ->
                check_int "truncated" 0 (Checkpoint.entries ck));
            Sys.remove path;
            opened ~path ~params:"p" ~resume:true (fun ck ->
                check_int "fresh" 0 (Checkpoint.entries ck);
                Checkpoint.record ck ~key:"k" ~value:"v")));
    test_case "a torn trailing line is dropped, file stays appendable"
      (fun () ->
        with_temp_ckpt (fun path ->
            opened ~path ~params:"p" ~resume:false (fun ck ->
                Checkpoint.record ck ~key:"a" ~value:"1";
                Checkpoint.record ck ~key:"b" ~value:"2");
            (* Simulate a kill mid-write: half a record, no newline. *)
            let oc =
              open_out_gen [ Open_append; Open_binary ] 0o644 path
            in
            output_string oc "{\"k\":\"c\",\"va";
            close_out oc;
            opened ~path ~params:"p" ~resume:true (fun ck ->
                check_int "torn line lost, rest kept" 2
                  (Checkpoint.entries ck);
                check_bool "torn key absent" true
                  (Checkpoint.find ck "c" = None);
                Checkpoint.record ck ~key:"c" ~value:"3");
            opened ~path ~params:"p" ~resume:true (fun ck ->
                check_int "record after tear survives" 3
                  (Checkpoint.entries ck);
                check_bool "c" true (Checkpoint.find ck "c" = Some "3"))));
    test_case "checkpointed_map equals the plain map" (fun () ->
        let input = Array.init 12 (fun i -> i) in
        let plain =
          with_lab (fun lab ->
              Lab.checkpointed_map lab ~stage:"sq" ~encode ~decode
                (fun i -> i * i)
                input)
        in
        with_temp_ckpt (fun path ->
            let fresh =
              opened ~path ~params:"p" ~resume:false (fun ck ->
                  with_lab ~checkpoint:ck (fun lab ->
                      Lab.checkpointed_map lab ~stage:"sq" ~encode ~decode
                        (fun i -> i * i)
                        input))
            in
            check_bool "fresh checkpoint run" true (fresh = plain);
            (* A full resume restores every cell: nothing recomputes. *)
            let computed = Atomic.make 0 in
            let resumed =
              opened ~path ~params:"p" ~resume:true (fun ck ->
                  with_lab ~checkpoint:ck (fun lab ->
                      Lab.checkpointed_map lab ~stage:"sq" ~encode ~decode
                        (fun i ->
                          Atomic.incr computed;
                          i * i)
                        input))
            in
            check_bool "resumed run" true (resumed = plain);
            check_int "no cell recomputed" 0 (Atomic.get computed)));
    test_case "partial resume recomputes exactly the missing cells"
      (fun () ->
        let full = Array.init 10 (fun i -> i) in
        let prefix = Array.sub full 0 4 in
        with_temp_ckpt (fun path ->
            (* A "killed" sweep: only the first four cells landed. *)
            opened ~path ~params:"p" ~resume:false (fun ck ->
                with_lab ~checkpoint:ck (fun lab ->
                    ignore
                      (Lab.checkpointed_map lab ~stage:"sq" ~encode ~decode
                         (fun i -> i * i)
                         prefix)));
            let computed = Atomic.make 0 in
            let prepared = ref [||] in
            let resumed =
              opened ~path ~params:"p" ~resume:true (fun ck ->
                  with_lab ~checkpoint:ck (fun lab ->
                      Lab.checkpointed_map lab ~stage:"sq"
                        ~prepare:(fun misses -> prepared := misses)
                        ~encode ~decode
                        (fun i ->
                          Atomic.incr computed;
                          i * i)
                        full))
            in
            check_bool "identical to an uninterrupted run" true
              (resumed = Array.map (fun i -> i * i) full);
            check_int "only the six missing cells ran" 6
              (Atomic.get computed);
            check_bool "prepare saw only the misses" true
              (!prepared = Array.sub full 4 6)));
    test_case "an undecodable record is treated as a miss" (fun () ->
        with_temp_ckpt (fun path ->
            let results =
              opened ~path ~params:"p" ~resume:false (fun ck ->
                  Checkpoint.record ck ~key:"sq/2" ~value:"rot";
                  with_lab ~checkpoint:ck (fun lab ->
                      Lab.checkpointed_map lab ~stage:"sq" ~encode ~decode
                        (fun i -> i * i)
                        [| 0; 1; 2 |]))
            in
            check_bool "recomputed over the rot" true
              (results = [| 0; 1; 4 |])));
  ]

let () =
  Alcotest.run "eval"
    [
      ("confusion", confusion_tests);
      ("table", table_tests);
      ("plot", plot_tests);
      ("params", params_tests);
      ("poison", poison_tests);
      ("lab", lab_tests);
      ("checkpoint", checkpoint_tests);
      ("registry", registry_tests);
      ("extensions", extension_tests);
    ]

(* Tests for the synthetic corpus substrate: word generation,
   vocabulary partitioning, attacker word sources, language models,
   email generation and dataset plumbing. *)

open Spamlab_corpus
open Spamlab_stats
module Label = Spamlab_spambayes.Label
module Message = Spamlab_email.Message
module Header = Spamlab_email.Header
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Oracle = Spamlab_oracle

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Small vocabulary sizes keep corpus tests fast. *)
let small_sizes =
  {
    Vocabulary.shared = 300;
    ham_specific = 200;
    spam_specific = 150;
    colloquial = 100;
    rare_standard = 400;
    rare_nonstandard = 400;
  }

let vocab = Vocabulary.create ~sizes:small_sizes ~seed:7 ()

(* Every vocabulary category. *)
let categories (v : Vocabulary.t) =
  [
    v.shared; v.ham_specific; v.spam_specific; v.colloquial; v.rare_standard;
    v.rare_nonstandard;
  ]

(* Membership in the union of word lists. *)
let mem_of lists =
  let table = Hashtbl.create 1024 in
  List.iter (Array.iter (fun w -> Hashtbl.replace table w ())) lists;
  Hashtbl.mem table

(* ------------------------------------------------------------------ *)
(* Wordgen                                                             *)

let wordgen_tests =
  [
    test_case "words are within the token length band" (fun () ->
        for i = 0 to 5_000 do
          let w = Wordgen.word (i * 17) in
          let n = String.length w in
          check_bool (w ^ " length") true (n >= 3 && n <= 12)
        done);
    test_case "injective over a sample" (fun () ->
        let seen = Hashtbl.create 100_000 in
        for i = 0 to 60_000 do
          let w = Wordgen.word i in
          check_bool ("dup " ^ w) false (Hashtbl.mem seen w);
          Hashtbl.replace seen w ()
        done);
    test_case "deterministic" (fun () ->
        check_str "same" (Wordgen.word 123456) (Wordgen.word 123456));
    test_case "alternating consonant-vowel shape" (fun () ->
        let consonants = "bcdfghjklmnpqrstvwxyz" in
        let w = Wordgen.word 9999 in
        String.iteri
          (fun i c ->
            let is_consonant = String.contains consonants c in
            check_bool "pattern" (i mod 2 = 0) is_consonant)
          w);
    test_case "negative index rejected" (fun () ->
        Alcotest.check_raises "neg"
          (Invalid_argument "Wordgen.word: negative index") (fun () ->
            ignore (Wordgen.word (-1))));
    test_case "words builds a contiguous range" (fun () ->
        let ws = Wordgen.words 100 5 in
        check_int "count" 5 (Array.length ws);
        check_str "first" (Wordgen.word 100) ws.(0);
        check_str "last" (Wordgen.word 104) ws.(4));
    test_case "misspell changes the word" (fun () ->
        let rng = Rng.create 3 in
        for i = 0 to 200 do
          let w = Wordgen.word (i * 31) in
          let m = Wordgen.misspell rng w in
          check_bool "different" true (m <> w);
          check_bool "length ok" true (String.length m >= 3)
        done);
    test_case "max_injective_index is large" (fun () ->
        check_bool "big" true (Wordgen.max_injective_index > 100_000_000));
  ]

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                          *)

let vocabulary_tests =
  [
    test_case "category sizes" (fun () ->
        check_int "shared" 300 (Array.length vocab.Vocabulary.shared);
        check_int "ham" 200 (Array.length vocab.Vocabulary.ham_specific);
        check_int "spam" 150 (Array.length vocab.Vocabulary.spam_specific);
        check_int "colloquial" 100 (Array.length vocab.Vocabulary.colloquial);
        check_int "rare std" 400 (Array.length vocab.Vocabulary.rare_standard);
        check_int "rare non" 400
          (Array.length vocab.Vocabulary.rare_nonstandard));
    test_case "categories are pairwise disjoint" (fun () ->
        let seen = Hashtbl.create 4096 in
        Array.iter
          (fun w ->
            check_bool ("dup " ^ w) false (Hashtbl.mem seen w);
            Hashtbl.replace seen w ())
          (Array.concat (categories vocab)));
    test_case "colloquial is not standard" (fun () ->
        let mem_std =
          mem_of
            Vocabulary.
              [
                vocab.shared; vocab.ham_specific; vocab.spam_specific;
                vocab.rare_standard;
              ]
        in
        Array.iter
          (fun w -> check_bool ("colloquial " ^ w) false (mem_std w))
          vocab.Vocabulary.colloquial);
    test_case "deterministic in the seed" (fun () ->
        let v2 = Vocabulary.create ~sizes:small_sizes ~seed:7 () in
        check_str "same colloquial" vocab.Vocabulary.colloquial.(50)
          v2.Vocabulary.colloquial.(50));
    test_case "different seeds differ in misspellings" (fun () ->
        let v2 = Vocabulary.create ~sizes:small_sizes ~seed:8 () in
        (* Slang half is positional, misspelling half is seeded. *)
        check_bool "some difference" true
          (vocab.Vocabulary.colloquial <> v2.Vocabulary.colloquial));
    test_case "rejects bad sizes" (fun () ->
        Alcotest.check_raises "zero shared"
          (Invalid_argument "Vocabulary.create: shared size must be positive")
          (fun () ->
            ignore
              (Vocabulary.create
                 ~sizes:{ small_sizes with Vocabulary.shared = 0 }
                 ~seed:1 ())));
  ]

(* ------------------------------------------------------------------ *)
(* Dictionary and Usenet                                               *)

let word_list_tests =
  [
    test_case "aspell has the requested size" (fun () ->
        check_int "size" 3000 (Array.length (Dictionary.aspell ~size:3000 vocab));
        check_int "default" Dictionary.aspell_size
          (Array.length (Dictionary.aspell vocab)));
    test_case "aspell contains standard words, not colloquial" (fun () ->
        let mem = mem_of [ Dictionary.aspell ~size:2000 vocab ] in
        check_bool "shared" true (mem vocab.Vocabulary.shared.(0));
        check_bool "ham" true (mem vocab.Vocabulary.ham_specific.(0));
        check_bool "rare std" true (mem vocab.Vocabulary.rare_standard.(0));
        Array.iter
          (fun w -> check_bool ("colloquial " ^ w) false (mem w))
          vocab.Vocabulary.colloquial;
        Array.iter
          (fun w -> check_bool ("rare non " ^ w) false (mem w))
          vocab.Vocabulary.rare_nonstandard);
    test_case "aspell truncates to a pocket dictionary" (fun () ->
        let pocket = Dictionary.aspell ~size:100 vocab in
        check_int "size" 100 (Array.length pocket);
        check_str "prefix" vocab.Vocabulary.shared.(0) pocket.(0));
    test_case "aspell rejects non-positive size" (fun () ->
        Alcotest.check_raises "size 0"
          (Invalid_argument "Dictionary.aspell: size must be positive")
          (fun () -> ignore (Dictionary.aspell ~size:0 vocab)));
    test_case "usenet covers colloquial and partial rare tails" (fun () ->
        let ranked = Usenet.ranked ~total:2500 ~dictionary_overlap:1500 vocab in
        let mem = mem_of [ ranked ] in
        Array.iter
          (fun w -> check_bool ("colloquial " ^ w) true (mem w))
          vocab.Vocabulary.colloquial;
        (* Head of rare_standard is covered, tail is not. *)
        check_bool "rare std head" true (mem vocab.Vocabulary.rare_standard.(0));
        check_bool "rare std tail" false
          (mem vocab.Vocabulary.rare_standard.(399));
        check_bool "rare non head" true
          (mem vocab.Vocabulary.rare_nonstandard.(0));
        check_bool "rare non tail" false
          (mem vocab.Vocabulary.rare_nonstandard.(399)));
    test_case "usenet honors the total" (fun () ->
        check_int "size" 2500
          (Array.length (Usenet.ranked ~total:2500 ~dictionary_overlap:1500 vocab)));
    test_case "usenet truncation keeps the head" (fun () ->
        let ranked = Usenet.ranked ~total:200 ~dictionary_overlap:100 vocab in
        check_int "size" 200 (Array.length ranked);
        check_str "head is shared" vocab.Vocabulary.shared.(0) ranked.(0));
    test_case "top clamps" (fun () ->
        let ranked = Usenet.ranked ~total:500 ~dictionary_overlap:400 vocab in
        check_int "top 10" 10 (Array.length (Usenet.top ranked 10));
        check_int "top beyond" 500 (Array.length (Usenet.top ranked 9999)));
    test_case "overlap_count aspell/usenet near the target" (fun () ->
        let aspell = Dictionary.aspell ~size:3000 vocab in
        let usenet = Usenet.ranked ~total:2500 ~dictionary_overlap:1500 vocab in
        let overlap = Dictionary.overlap_count aspell usenet in
        (* vocab-part overlap (standard 650 + covered rare 200) plus 650
           dictionary filler = 1500, the requested target. *)
        check_int "overlap" 1500 overlap);
    test_case "paper-scale overlap statistic" (fun () ->
        (* With default sizes the full lists reproduce the published
           61k overlap; use the real vocabulary here. *)
        let full = Vocabulary.create ~seed:1 () in
        let aspell = Dictionary.aspell full in
        let usenet = Usenet.ranked full in
        let overlap = Dictionary.overlap_count aspell usenet in
        check_bool "near 61000" true (abs (overlap - 61_000) < 2_000));
  ]

(* ------------------------------------------------------------------ *)
(* Language model                                                      *)

let lm_tests =
  [
    test_case "samples stay in the support" (fun () ->
        let model = Language_model.ham vocab in
        let support = Language_model.support model in
        let mem = mem_of [ support ] in
        let rng = Rng.create 5 in
        for _ = 1 to 2000 do
          check_bool "in support" true (mem (Language_model.sample_word model rng))
        done);
    test_case "ham support excludes spam-specific vocabulary" (fun () ->
        let model = Language_model.ham vocab in
        let mem = mem_of [ Language_model.support model ] in
        check_bool "no spam vocab" false (mem vocab.Vocabulary.spam_specific.(0));
        check_bool "has colloquial" true (mem vocab.Vocabulary.colloquial.(0));
        check_bool "has rare non" true
          (mem vocab.Vocabulary.rare_nonstandard.(17)));
    test_case "word_prob sums to 1 over the support" (fun () ->
        let model = Language_model.spam vocab in
        let support = Language_model.support model in
        let total =
          Array.fold_left
            (fun acc w -> acc +. Language_model.word_prob model w)
            0.0 support
        in
        Alcotest.(check (float 1e-6)) "sums to one" 1.0 total);
    test_case "word_prob outside support is 0" (fun () ->
        let model = Language_model.ham vocab in
        Alcotest.(check (float 0.0)) "zero" 0.0
          (Language_model.word_prob model "zzzznotaword"));
    test_case "head words more probable than tail words" (fun () ->
        let model = Language_model.ham vocab in
        check_bool "zipf head" true
          (Language_model.word_prob model vocab.Vocabulary.shared.(0)
          > Language_model.word_prob model vocab.Vocabulary.shared.(250)));
    test_case "sample_words length" (fun () ->
        let model = Language_model.ham vocab in
        check_int "n" 37
          (List.length (Language_model.sample_words model (Rng.create 1) 37)));
    test_case "make validates" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Language_model.make: no components") (fun () ->
            ignore (Language_model.make []));
        Alcotest.check_raises "bad weight"
          (Invalid_argument "Language_model.make: non-positive weight")
          (fun () ->
            ignore
              (Language_model.make
                 [ { Language_model.words = [| "abc" |]; weight = 0.0;
                     zipf_exponent = 1.0 } ])));
  ]

(* ------------------------------------------------------------------ *)
(* Persons and Generator                                               *)

let config = Generator.default_config ~sizes:small_sizes ~seed:11 ()

let persons_tests =
  [
    test_case "pool has requested size and valid addresses" (fun () ->
        let rng = Rng.create 2 in
        let people = Persons.pool rng ~domains:[| "a.com"; "b.com" |] 25 in
        check_int "size" 25 (Array.length people);
        Array.iter
          (fun p ->
            let addr = p.Persons.address in
            check_bool "domain" true
              (addr.Spamlab_email.Address.domain = "a.com"
              || addr.Spamlab_email.Address.domain = "b.com"))
          people);
    test_case "pool rejects empty domains" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Persons.pool: no domains") (fun () ->
            ignore (Persons.pool (Rng.create 1) ~domains:[||] 3)));
    test_case "header_date has RFC-ish shape" (fun () ->
        let d = Persons.header_date (Rng.create 9) in
        check_bool "comma" true (String.contains d ',');
        check_bool "year" true
          (Option.is_some
             (String.index_opt d '2')));
    test_case "message_id embeds the domain" (fun () ->
        let id = Persons.message_id (Rng.create 4) ~domain:"host.example" in
        check_bool "domain present" true
          (String.length id > String.length "host.example"
          && String.contains id '@'));
    test_case "domains_for uses the tld" (fun () ->
        let ds = Persons.domains_for (Rng.create 3) ~tld:"biz" 5 in
        Array.iter
          (fun d ->
            let n = String.length d in
            check_str "suffix" ".biz" (String.sub d (n - 4) 4))
          ds);
  ]

let generator_tests =
  [
    test_case "ham has complete headers" (fun () ->
        let m = Generator.ham config (Rng.create 21) in
        List.iter
          (fun field ->
            check_bool field true
              (Option.is_some (Header.find (Message.headers m) field)))
          [ "from"; "to"; "subject"; "date"; "message-id" ];
        check_bool "body" true (String.length (Message.body m) > 0));
    test_case "ham is addressed to the victim" (fun () ->
        let m = Generator.ham config (Rng.create 22) in
        Alcotest.(check (option string))
          "victim"
          (Some
             (Spamlab_email.Address.to_string
                config.Generator.victim.Persons.address))
          (Header.find (Message.headers m) "to"));
    test_case "spam sometimes carries a URL" (fun () ->
        let contains_http body =
          let n = String.length body in
          let rec scan i =
            if i + 7 > n then false
            else if String.sub body i 7 = "http://" then true
            else scan (i + 1)
          in
          scan 0
        in
        let rng = Rng.create 23 in
        let with_url = ref 0 in
        for _ = 1 to 50 do
          if contains_http (Message.body (Generator.spam config rng)) then
            incr with_url
        done;
        check_bool "majority" true (!with_url > 25));
    test_case "generation is deterministic per rng state" (fun () ->
        let a = Generator.ham config (Rng.create 99) in
        let b = Generator.ham config (Rng.create 99) in
        check_bool "equal" true (Message.equal a b));
    test_case "body_of_words includes every word" (fun () ->
        let words = [ "alpha"; "beta"; "gamma"; "delta" ] in
        let body = Generator.body_of_words (Rng.create 1) words in
        let tokens = Spamlab_tokenizer.Text.words body in
        List.iter
          (fun w -> check_bool w true (List.mem w tokens))
          words);
    test_case "some spam is HTML, some base64, ham never base64" (fun () ->
        let rng = Rng.create 41 in
        let html = ref 0 and b64 = ref 0 in
        for _ = 1 to 100 do
          let m = Generator.spam config rng in
          let headers = Message.headers m in
          (match Header.find headers "content-type" with
          | Some ct when String.length ct >= 9 && String.sub ct 0 9 = "text/html" ->
              incr html
          | _ -> ());
          match Header.find headers "content-transfer-encoding" with
          | Some "base64" -> incr b64
          | _ -> ()
        done;
        check_bool "html spam exists" true (!html > 10);
        check_bool "base64 spam exists" true (!b64 > 2);
        for _ = 1 to 60 do
          let m = Generator.ham config rng in
          check_bool "ham not base64" true
            (Header.find (Message.headers m) "content-transfer-encoding"
            = None)
        done);
    test_case "tokens survive spam obfuscation end to end" (fun () ->
        let rng = Rng.create 43 in
        (* Find a base64-encoded spam and check its tokens are words,
           not base64 gibberish. *)
        let rec find tries =
          if tries = 0 then Alcotest.fail "no base64 spam generated"
          else
            let m = Generator.spam config rng in
            match Header.find (Message.headers m) "content-transfer-encoding" with
            | Some "base64" -> m
            | _ -> find (tries - 1)
        in
        let m = find 200 in
        let tokens = Tokenizer.unique_tokens Tokenizer.spambayes m in
        let vocab_words = mem_of (categories vocab) in
        let recovered =
          Array.fold_left
            (fun acc t -> if vocab_words t then acc + 1 else acc)
            0 tokens
        in
        check_bool "many vocabulary words recovered" true (recovered > 10);
        check_bool "encoding tell present" true
          (Array.exists (( = ) "content-transfer-encoding:base64") tokens));
    test_case "ham and spam vocabularies differ" (fun () ->
        let rng = Rng.create 31 in
        let ham_tokens =
          Tokenizer.unique_tokens Tokenizer.spambayes (Generator.ham config rng)
        in
        let mem_spam = mem_of [ vocab.Vocabulary.spam_specific ] in
        (* Ham bodies never draw from spam-specific vocabulary. *)
        Array.iter
          (fun t -> check_bool ("spam word in ham: " ^ t) false (mem_spam t))
          ham_tokens);
  ]

(* ------------------------------------------------------------------ *)
(* Trec and Dataset                                                    *)

let trec_tests =
  [
    test_case "generate honors size and prevalence" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 5) ~size:200 ~spam_fraction:0.25
        in
        check_int "size" 200 (Array.length corpus);
        let ham, spam = Trec.counts corpus in
        check_int "spam" 50 spam;
        check_int "ham" 150 ham);
    test_case "generate rejects bad arguments" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Trec.generate: negative size") (fun () ->
            ignore (Trec.generate config (Rng.create 1) ~size:(-1) ~spam_fraction:0.5));
        Alcotest.check_raises "fraction"
          (Invalid_argument "Trec.generate: spam_fraction outside [0,1]")
          (fun () ->
            ignore (Trec.generate config (Rng.create 1) ~size:10 ~spam_fraction:1.5)));
    test_case "ham_only and spam_only partition" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 6) ~size:60 ~spam_fraction:0.5
        in
        check_int "ham" 30 (Array.length (Trec.ham_only corpus));
        check_int "spam" 30 (Array.length (Trec.spam_only corpus)));
    test_case "mbox files round-trip a corpus" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 7) ~size:20 ~spam_fraction:0.5
        in
        let ham_path = Filename.temp_file "spamlab" ".ham" in
        let spam_path = Filename.temp_file "spamlab" ".spam" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove ham_path;
            Sys.remove spam_path)
          (fun () ->
            Trec.to_mbox_files ~ham_path ~spam_path corpus;
            match
              ( Spamlab_email.Mbox.read_file ham_path,
                Spamlab_email.Mbox.read_file spam_path )
            with
            | Error e, _ | _, Error e -> Alcotest.fail e
            | Ok hams, Ok spams ->
                let same what expected loaded =
                  check_bool what true
                    (List.equal Message.equal (Array.to_list expected) loaded)
                in
                same "ham" (Trec.ham_only corpus) hams;
                same "spam" (Trec.spam_only corpus) spams));
  ]

let dataset_tests =
  [
    test_case "of_labeled tokenizes everything" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 8) ~size:30 ~spam_fraction:0.5
        in
        let examples = Dataset.of_labeled Tokenizer.spambayes corpus in
        check_int "size" 30 (Array.length examples);
        Array.iter
          (fun (e : Dataset.example) ->
            check_bool "has tokens" true (Array.length e.Dataset.ids > 0);
            check_bool "raw >= unique" true
              (e.Dataset.raw_token_count >= Array.length e.Dataset.ids))
          examples);
    test_case "kfold partitions without overlap" (fun () ->
        let arr = Array.init 25 (fun i -> i) in
        let folds = Dataset.kfold ~k:4 arr in
        check_int "folds" 4 (Array.length folds);
        let total_test =
          Array.fold_left (fun acc (_, test) -> acc + Array.length test) 0 folds
        in
        check_int "tests cover all" 25 total_test;
        Array.iter
          (fun (train, test) ->
            check_int "sizes" 25 (Array.length train + Array.length test);
            let train_set = Hashtbl.create 32 in
            Array.iter (fun x -> Hashtbl.replace train_set x ()) train;
            Array.iter
              (fun x -> check_bool "disjoint" false (Hashtbl.mem train_set x))
              test)
          folds);
    test_case "kfold validates k" (fun () ->
        Alcotest.check_raises "k=1"
          (Invalid_argument "Dataset.kfold: k must be at least 2") (fun () ->
            ignore (Dataset.kfold ~k:1 [| 1; 2 |]));
        Alcotest.check_raises "k>n"
          (Invalid_argument "Dataset.kfold: more folds than elements")
          (fun () -> ignore (Dataset.kfold ~k:3 [| 1; 2 |])));
    test_case "split respects the fraction" (fun () ->
        let a, b = Dataset.split (Rng.create 3) 0.3 (Array.init 10 Fun.id) in
        check_int "a" 3 (Array.length a);
        check_int "b" 7 (Array.length b);
        let merged = List.sort compare (Array.to_list a @ Array.to_list b) in
        Alcotest.(check (list int)) "partition" (List.init 10 Fun.id) merged);
    test_case "train_filter and classify agree with Filter" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 10) ~size:60 ~spam_fraction:0.5
        in
        let examples = Dataset.of_labeled Tokenizer.spambayes corpus in
        let filter = Spamlab_spambayes.Filter.create () in
        Dataset.train_filter filter examples;
        check_int "nham + nspam" 60
          (Spamlab_spambayes.Token_db.nham (Spamlab_spambayes.Filter.db filter)
          + Spamlab_spambayes.Token_db.nspam
              (Spamlab_spambayes.Filter.db filter)));
    qtest "total_raw_tokens is the sum" ~count:20
      QCheck2.Gen.(int_range 1 30)
      (fun n ->
        let corpus =
          Trec.generate config (Rng.create n) ~size:n ~spam_fraction:0.5
        in
        let examples = Dataset.of_labeled Tokenizer.spambayes corpus in
        Dataset.total_raw_tokens examples
        = Array.fold_left
            (fun acc (e : Dataset.example) -> acc + e.Dataset.raw_token_count)
            0 examples);
  ]

(* ------------------------------------------------------------------ *)
(* Substrate pipeline: jobs-invariant generation and the fused path    *)

let substrate_tests =
  let corpus_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun (l1, m1) (l2, m2) -> l1 = l2 && Message.equal m1 m2)
         a b
  in
  [
    test_case "generation is identical at jobs 1/4/8" (fun () ->
        let seq =
          Trec.generate config (Rng.create 77) ~size:120 ~spam_fraction:0.5
        in
        List.iter
          (fun jobs ->
            let pool = Spamlab_parallel.Pool.create ~jobs in
            Fun.protect
              ~finally:(fun () -> Spamlab_parallel.Pool.shutdown pool)
              (fun () ->
                let par =
                  Trec.generate ~pool config (Rng.create 77) ~size:120
                    ~spam_fraction:0.5
                in
                check_bool
                  (Printf.sprintf "same corpus at jobs %d" jobs)
                  true (corpus_equal seq par)))
          [ 1; 4; 8 ]);
    test_case "generate advances the caller's rng" (fun () ->
        (* Per-index children are keyed on the parent's current
           position, so two draws from one rng give different
           corpora (train/test splits stay distinct). *)
        let rng = Rng.create 123 in
        let a = Trec.generate config rng ~size:30 ~spam_fraction:0.5 in
        let b = Trec.generate config rng ~size:30 ~spam_fraction:0.5 in
        check_bool "sequential corpora differ" false (corpus_equal a b));
    test_case "tokenize_ids agrees with the list pipeline" (fun () ->
        let rng = Rng.create 88 in
        let messages =
          List.init 25 (fun _ -> Generator.ham config rng)
          @ List.init 50 (fun _ -> Generator.spam config rng)
          (* Force the HTML and base64 decode paths regardless of what
             the generator happened to sample. *)
          @ [
              Spamlab_email.Mime.make_html
                "<html><body><p>Visit <a \
                 href=\"http://example.test/offer\">now</a> for great \
                 savings</p></body></html>";
              Spamlab_email.Mime.with_base64_transfer
                (Generator.spam config rng);
            ]
        in
        List.iteri
          (fun i msg ->
            let ids, raw = Dataset.tokenize_ids Tokenizer.spambayes msg in
            let tokens, raw_ref =
              Oracle.unique_counted (Oracle.Spambayes.tokenize msg)
            in
            (* The same set: [ids] ascends by id value. *)
            let ids_ref = Spamlab_spambayes.Intern.intern_array tokens in
            Array.sort compare ids_ref;
            check_int (Printf.sprintf "raw count %d" i) raw_ref raw;
            Alcotest.(check (array int))
              (Printf.sprintf "ids %d" i)
              ids_ref ids)
          messages);
    qtest "unique_tokens = unique_counted o tokenize" ~count:60
      QCheck2.Gen.(int_range 0 10_000)
      (fun n ->
        let rng = Rng.create n in
        let msg =
          if n mod 2 = 0 then Generator.ham config rng
          else Generator.spam config rng
        in
        Tokenizer.unique_tokens Tokenizer.spambayes msg
        = fst (Oracle.unique_counted (Oracle.Spambayes.tokenize msg)));
    test_case "word_prob is safe and consistent under domains" (fun () ->
        (* Regression for the unsynchronized prob_index memoization:
           four domains racing the first build must all see the same
           fully-built table. *)
        let model = Language_model.ham vocab in
        let words = vocab.Vocabulary.shared in
        let sum () =
          Array.fold_left
            (fun acc w -> acc +. Language_model.word_prob model w)
            0.0 words
        in
        let domains = List.init 4 (fun _ -> Domain.spawn sum) in
        let results = List.map Domain.join domains in
        let expected = sum () in
        List.iter
          (fun r ->
            check_bool "same mass" true (Float.abs (r -. expected) < 1e-12))
          results);
  ]

(* ------------------------------------------------------------------ *)
(* Corpus statistics                                                   *)

(* [Corpus_stats.measure] counted by token string, one message at a
   time: the reference the id-keyed count must equal. *)
let string_keyed_measure tokenizer corpus =
  let n = Array.length corpus in
  let documents = Hashtbl.create 4096 in
  let bump table token =
    Hashtbl.replace table token
      (1 + Option.value ~default:0 (Hashtbl.find_opt table token))
  in
  let in_ham = Hashtbl.create 4096 and in_spam = Hashtbl.create 4096 in
  let heaps = ref [] in
  let streams =
    Array.mapi
      (fun i (label, msg) ->
        let seen = if label = Label.Ham then in_ham else in_spam in
        Array.iter
          (fun token ->
            bump documents token;
            Hashtbl.replace seen token ())
          (Tokenizer.unique_tokens tokenizer msg);
        if (i + 1) mod max 1 (n / 10) = 0 || i + 1 = n then
          heaps := (i + 1, Hashtbl.length documents) :: !heaps;
        List.length (Tokenizer.tokenize tokenizer msg))
      corpus
  in
  let lengths = Array.map float_of_int streams in
  let distinct = Hashtbl.length documents in
  let tokens_with p =
    Hashtbl.fold
      (fun token d acc -> if p token d then acc + 1 else acc)
      documents 0
  in
  let fraction k = float_of_int k /. float_of_int distinct in
  let ham, spam = Trec.counts corpus in
  {
    Corpus_stats.messages = n;
    ham;
    spam;
    raw_tokens = Array.fold_left ( + ) 0 streams;
    distinct_tokens = distinct;
    mean_tokens_per_message = Summary.mean lengths;
    median_tokens_per_message = Summary.median lengths;
    p95_tokens_per_message = Summary.quantile lengths 0.95;
    singleton_fraction = fraction (tokens_with (fun _ d -> d = 1));
    rare_fraction = fraction (tokens_with (fun _ d -> d <= 3));
    ham_vocabulary = Hashtbl.length in_ham;
    spam_vocabulary = Hashtbl.length in_spam;
    shared_vocabulary =
      tokens_with (fun t _ -> Hashtbl.mem in_ham t && Hashtbl.mem in_spam t);
    heaps_curve = List.rev !heaps;
  }

let measure corpus =
  Corpus_stats.measure (Dataset.of_labeled Tokenizer.spambayes corpus)

let stats_tests =
  [
    test_case "measure counts ids as the string-keyed reference counts tokens"
      (fun () ->
        let corpus =
          Trec.generate config (Rng.create 60) ~size:90 ~spam_fraction:0.5
        in
        List.iter
          (fun (name, tokenizer) ->
            check_bool name true
              (Corpus_stats.measure (Dataset.of_labeled tokenizer corpus)
              = string_keyed_measure tokenizer corpus))
          Tokenizer.all);
    test_case "measure reports consistent counts" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 61) ~size:120 ~spam_fraction:0.5
        in
        let s = measure corpus in
        check_int "messages" 120 s.Corpus_stats.messages;
        check_int "ham" 60 s.Corpus_stats.ham;
        check_int "spam" 60 s.Corpus_stats.spam;
        check_bool "raw >= distinct" true
          (s.Corpus_stats.raw_tokens >= s.Corpus_stats.distinct_tokens);
        check_bool "classes partition vocabulary" true
          (s.Corpus_stats.ham_vocabulary + s.Corpus_stats.spam_vocabulary
           - s.Corpus_stats.shared_vocabulary
          = s.Corpus_stats.distinct_tokens));
    test_case "lengths are heavy-tailed" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 62) ~size:300 ~spam_fraction:0.5
        in
        let s = measure corpus in
        check_bool "median below mean" true
          (s.Corpus_stats.median_tokens_per_message
          < s.Corpus_stats.mean_tokens_per_message);
        check_bool "p95 above mean" true
          (s.Corpus_stats.p95_tokens_per_message
          > s.Corpus_stats.mean_tokens_per_message));
    test_case "singleton tail exists" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 63) ~size:200 ~spam_fraction:0.5
        in
        let s = measure corpus in
        check_bool "singletons" true (s.Corpus_stats.singleton_fraction > 0.1);
        check_bool "bounded" true (s.Corpus_stats.singleton_fraction <= 1.0));
    test_case "heaps curve is monotone and sub-linear" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 64) ~size:400 ~spam_fraction:0.5
        in
        let s = measure corpus in
        let curve = s.Corpus_stats.heaps_curve in
        check_bool "enough checkpoints" true (List.length curve >= 5);
        let rec monotone = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
          | _ -> true
        in
        check_bool "monotone" true (monotone curve);
        (* Sub-linear: the second half of the corpus adds fewer new
           tokens than the first half. *)
        let first = List.nth curve 0 in
        let mid = List.nth curve (List.length curve / 2) in
        let last = List.nth curve (List.length curve - 1) in
        let growth (m0, v0) (m1, v1) =
          float_of_int (v1 - v0) /. float_of_int (m1 - m0)
        in
        check_bool "decelerating" true (growth mid last < growth first mid));
    test_case "measure rejects an empty corpus" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Corpus_stats.measure: empty corpus") (fun () ->
            ignore (Corpus_stats.measure [||])));
    test_case "render mentions the key facts" (fun () ->
        let corpus =
          Trec.generate config (Rng.create 65) ~size:60 ~spam_fraction:0.5
        in
        let out = Corpus_stats.render (measure corpus) in
        check_bool "mentions heaps" true (String.length out > 300));
  ]

let () =
  Alcotest.run "corpus"
    [
      ("wordgen", wordgen_tests);
      ("vocabulary", vocabulary_tests);
      ("word_lists", word_list_tests);
      ("language_model", lm_tests);
      ("persons", persons_tests);
      ("generator", generator_tests);
      ("trec", trec_tests);
      ("dataset", dataset_tests);
      ("substrate", substrate_tests);
      ("stats", stats_tests);
    ]

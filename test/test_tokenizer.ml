(* Tests for the tokenizer substrate: the SpamBayes tokenization rules
   and the BogoFilter / SpamAssassin variants. *)

open Spamlab_tokenizer
module Header = Spamlab_email.Header
module Message = Spamlab_email.Message
module Oracle = Spamlab_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list string))
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains token tokens = List.mem token tokens
let bogofilter = Option.get (Tokenizer.find "bogofilter")
let spamassassin = Option.get (Tokenizer.find "spamassassin")

(* Random text over every byte class the splitter and the URL test
   distinguish: lower and upper case, digits, the kept punctuation
   '$-, other punctuation, whitespace including CR/LF/tab, 8-bit
   bytes, and URL-shaped fragments. *)
let text_gen =
  QCheck2.Gen.(
    let byte =
      oneof
        [
          char_range 'a' 'z';
          char_range 'A' 'Z';
          char_range '0' '9';
          oneofl [ '\''; '$'; '-' ];
          oneofl [ '.'; ','; '!'; '?'; ':'; '/'; '@'; '('; ')'; '"'; '_' ];
          oneofl [ ' '; '\t'; '\n'; '\r' ];
          map Char.chr (int_range 128 255);
          map Char.chr (int_range 0 255);
        ]
    in
    let piece =
      oneof
        [
          map (String.make 1) byte;
          oneofl
            [ "http"; "HTTP"; "https"; "Ftp"; "mailto"; "gopher"; "://";
              ":"; "/"; "www."; "WWW."; "wWw" ];
        ]
    in
    map (String.concat "") (list_size (int_range 0 30) piece))

(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let text_tests =
  [
    test_case "words split on whitespace" (fun () ->
        check_list "split" [ "a"; "bb"; "c" ]
          (Text.words "  a\tbb\n c\r\n");
        check_list "empty" [] (Text.words " \t\n"));
    test_case "words strip edge punctuation" (fun () ->
        check_list "parens" [ "word" ] (Text.words "(word)");
        check_list "inner apostrophe" [ "don't" ] (Text.words "don't!");
        check_list "dollar" [ "$99" ] (Text.words "$99,");
        check_list "hyphen" [ "v-i-a-g-r-a" ] (Text.words "v-i-a-g-r-a.");
        check_list "all punct" [] (Text.words "..!?"));
    test_case "words lowercases and cleans" (fun () ->
        check_list "words" [ "hello"; "world" ] (Text.words "Hello, WORLD!"));
    qtest ~count:1000 "words = oracle words on random bytes" text_gen
      (fun s -> Text.words s = Oracle.Text.words s);
  ]

(* ------------------------------------------------------------------ *)
(* Url                                                                 *)

(* [Url.looks_like_url_at] on a whole word, as the word iterator hands
   one over: lowercased, with the offset of its first ':'. *)
let looks_like_url w =
  let w = String.lowercase_ascii w in
  let colon = Option.value (String.index_opt w ':') ~default:(String.length w) in
  Url.looks_like_url_at w 0 (String.length w) ~colon

let url_tests =
  [
    test_case "looks_like_url" (fun () ->
        check_bool "http" true (looks_like_url "http://example.com");
        check_bool "https" true (looks_like_url "https://a.b/c");
        check_bool "www" true (looks_like_url "www.example.com");
        check_bool "plain word" false (looks_like_url "hello");
        check_bool "colon no scheme" false (looks_like_url "a:b"));
    test_case "crack extracts proto and host parts" (fun () ->
        let tokens = Url.crack "http://shop.example.com/buy/cheap-pills" in
        check_bool "proto" true (contains "proto:http" tokens);
        check_bool "host head" true (contains "url:shop" tokens);
        check_bool "host mid" true (contains "url:example" tokens);
        check_bool "tld" true (contains "url:com" tokens);
        check_bool "path word" true (contains "url:buy" tokens);
        check_bool "path hyphen split" true (contains "url:cheap" tokens));
    test_case "crack strips port and userinfo" (fun () ->
        let tokens = Url.crack "http://user@host.net:8080/x" in
        check_bool "host" true (contains "url:host" tokens);
        check_bool "no user" false (contains "url:user@host" tokens);
        check_bool "no port" false (contains "url:8080" tokens));
    test_case "crack www without scheme defaults to http" (fun () ->
        let tokens = Url.crack "www.example.org" in
        check_bool "proto" true (contains "proto:http" tokens);
        check_bool "www part" true (contains "url:www" tokens));
    test_case "crack non-url is empty" (fun () ->
        check_list "empty" [] (Url.crack "not-a-url"));
    test_case "crack drops short path fragments" (fun () ->
        let tokens = Url.crack "http://a.b/x" in
        check_bool "no 1-char path token" false (contains "url:x" tokens));
    qtest ~count:1000 "looks_like_url = oracle on random bytes" text_gen
      (fun s -> looks_like_url s = Oracle.Url.looks_like_url s);
  ]

(* ------------------------------------------------------------------ *)
(* SpamBayes tokenizer                                                 *)

let msg ?(headers = []) body =
  Message.make ~headers:(Header.of_list headers) body

(* The token stream of a header-less plain-text message is its body
   text's tokens (ASCII bodies carry no 8bit% token). *)
let sb_body text = Tokenizer.tokenize Tokenizer.spambayes (msg text)

let sb_tests =
  [
    test_case "keeps words of length 3..12" (fun () ->
        let tokens = sb_body "ab abc twelveletter abcdefghijkl" in
        check_bool "2 dropped" false (contains "ab" tokens);
        check_bool "3 kept" true (contains "abc" tokens);
        check_bool "12 kept" true (contains "abcdefghijkl" tokens);
        check_bool "13 not kept raw" false (contains "twelveletters" tokens));
    test_case "long words become skip tokens" (fun () ->
        let tokens = sb_body "supercalifragilistic" in
        check_list "skip" [ "skip:s 20" ] tokens);
    test_case "email addresses crack into parts" (fun () ->
        let tokens = sb_body "mail bob@corp.example.com now" in
        check_bool "name" true (contains "email name:bob" tokens);
        check_bool "domain part" true (contains "email addr:corp" tokens);
        check_bool "tld" true (contains "email addr:com" tokens));
    test_case "urls crack in bodies" (fun () ->
        let tokens = sb_body "visit http://spam.biz/offer today" in
        check_bool "proto" true (contains "proto:http" tokens);
        check_bool "host" true (contains "url:spam" tokens));
    test_case "subject words emitted prefixed and bare" (fun () ->
        let tokens =
          Tokenizer.tokenize Tokenizer.spambayes
            (msg ~headers:[ ("Subject", "urgent offer") ] "body words here")
        in
        check_bool "prefixed" true (contains "subject:urgent" tokens);
        check_bool "bare" true (contains "urgent" tokens));
    test_case "from address tokens" (fun () ->
        let tokens =
          Tokenizer.tokenize Tokenizer.spambayes
            (msg ~headers:[ ("From", "Eve Attacker <eve@evil.example>") ] "x y z")
        in
        check_bool "addr" true (contains "from:addr:evil.example" tokens);
        check_bool "local" true (contains "from:name:eve" tokens);
        check_bool "display name" true (contains "from:name:eve" tokens));
    test_case "8-bit body yields meta token" (fun () ->
        let tokens =
          Tokenizer.tokenize Tokenizer.spambayes
            (msg "caf\xc3\xa9 caf\xc3\xa9 caf\xc3\xa9")
        in
        check_bool "has 8bit token" true
          (List.exists
             (fun t -> String.length t > 5 && String.sub t 0 5 = "8bit%")
             tokens));
    test_case "ascii body has no 8bit token" (fun () ->
        let tokens = Tokenizer.tokenize Tokenizer.spambayes (msg "plain words only") in
        check_bool "none" false
          (List.exists
             (fun t -> String.length t > 5 && String.sub t 0 5 = "8bit%")
             tokens));
    test_case "empty-header message tokenizes body only" (fun () ->
        let tokens = Tokenizer.tokenize Tokenizer.spambayes (msg "alpha beta gamma") in
        check_list "body" [ "alpha"; "beta"; "gamma" ] tokens);
    test_case "constants" (fun () ->
        check_int "min" 3 Spambayes_tok.min_word_length;
        check_int "max" 12 Spambayes_tok.max_word_length);
  ]

(* ------------------------------------------------------------------ *)
(* Variants                                                            *)

let variant_tests =
  [
    test_case "bogofilter keeps longer tokens" (fun () ->
        let tokens =
          Tokenizer.tokenize bogofilter (msg "extraordinarily long")
        in
        check_bool "long token kept" true (contains "extraordinarily" tokens));
    test_case "bogofilter prefixes every header" (fun () ->
        let tokens =
          Tokenizer.tokenize bogofilter
            (msg ~headers:[ ("X-Mailer", "bulkblast pro") ] "body")
        in
        check_bool "prefixed" true (contains "x-mailer:bulkblast" tokens));
    test_case "spamassassin stems long words" (fun () ->
        let tokens =
          Tokenizer.tokenize spamassassin
            (msg "extraordinarilylongword short")
        in
        check_bool "stem" true (contains "sk:extra" tokens);
        check_bool "short kept" true (contains "short" tokens));
    test_case "spamassassin keeps URL hostname only" (fun () ->
        let tokens =
          Tokenizer.tokenize spamassassin (msg "http://spam.biz/offer")
        in
        check_bool "host token" true (contains "url:spam" tokens);
        check_bool "no path" false (contains "url:offer" tokens));
    test_case "registry finds all variants" (fun () ->
        check_int "three" 3 (List.length Tokenizer.all);
        check_bool "spambayes" true (Tokenizer.find "spambayes" <> None);
        check_bool "bogofilter" true (Tokenizer.find "bogofilter" <> None);
        check_bool "spamassassin" true (Tokenizer.find "spamassassin" <> None);
        check_bool "unknown" true (Tokenizer.find "nope" = None));
    test_case "variants differ on the same message" (fun () ->
        let m =
          msg ~headers:[ ("Subject", "offer") ] "extraordinarilylongword here"
        in
        let sb = Tokenizer.tokenize Tokenizer.spambayes m in
        let bf = Tokenizer.tokenize bogofilter m in
        check_bool "differ" true (sb <> bf));
  ]

(* ------------------------------------------------------------------ *)
(* unique_tokens                                                       *)

let unique_tests =
  [
    test_case "unique_tokens deduplicates and sorts" (fun () ->
        let u = Tokenizer.unique_tokens Tokenizer.spambayes (msg "bbb aaa bbb aaa ccc") in
        Alcotest.(check (array string)) "sorted" [| "aaa"; "bbb"; "ccc" |] u);
    qtest "unique_tokens: sorted oracle set"
      QCheck2.Gen.(
        list_size (int_range 0 50)
          (string_size ~gen:(char_range 'a' 'e') (int_range 1 5)))
      (fun words ->
        let m = msg (String.concat " " words) in
        let u = Tokenizer.unique_tokens Tokenizer.spambayes m in
        let ok_sorted = ref true in
        Array.iteri
          (fun i t -> if i > 0 && String.compare u.(i - 1) t >= 0 then ok_sorted := false)
          u;
        !ok_sorted
        && List.sort_uniq String.compare (Oracle.Spambayes.tokenize m)
           = Array.to_list u);
    test_case "the string API interns nothing" (fun () ->
        (* Feature extraction and attack payloads run on words no mail
           has carried; they must not grow the process-wide table. *)
        let module Intern = Spamlab_spambayes.Intern in
        let m =
          msg
            ~headers:[ ("Subject", "Zqxvunseen Subjectword") ]
            "zqxvfresh Wqplunseen http://zqxv.example/path \
             zq@unseen.example supercalifragilisticzqxv"
        in
        let before = Intern.size () in
        List.iter
          (fun (_, t) ->
            ignore (Tokenizer.unique_tokens t m);
            ignore (Tokenizer.tokenize t m))
          Tokenizer.all;
        check_int "intern size" before (Intern.size ()));
    qtest "tokenize then unique never exceeds stream length"
      QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 80))
      (fun body ->
        let m = msg body in
        Array.length (Tokenizer.unique_tokens Tokenizer.spambayes m)
        <= List.length (Tokenizer.tokenize Tokenizer.spambayes m));
  ]

let () =
  Alcotest.run "tokenizer"
    [
      ("text", text_tests);
      ("url", url_tests);
      ("spambayes", sb_tests);
      ("variants", variant_tests);
      ("unique", unique_tests);
    ]

(* Differential tests for the zero-copy ingest path (PR 6): the span
   pipeline (Tokenizer.iter_spans → Intern.intern_sub → Ingest) must
   agree with the legacy string pipeline on every registered tokenizer,
   and the raw-mbox path must agree with parse-then-tokenize after
   header suppression. *)

open Spamlab_tokenizer
module Header = Spamlab_email.Header
module Message = Spamlab_email.Message
module Mime = Spamlab_email.Mime
module Mbox = Spamlab_email.Mbox
module Intern = Spamlab_spambayes.Intern
module Ingest = Spamlab_spambayes.Ingest
module Classify = Spamlab_spambayes.Classify
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Generator = Spamlab_corpus.Generator
module Vocabulary = Spamlab_corpus.Vocabulary
module Rng = Spamlab_stats.Rng

let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let msg ?(headers = []) body =
  Message.make ~headers:(Header.of_list headers) body

let small_sizes =
  {
    Vocabulary.shared = 300;
    ham_specific = 200;
    spam_specific = 150;
    colloquial = 100;
    rare_standard = 400;
    rare_nonstandard = 400;
  }

let config = Generator.default_config ~sizes:small_sizes ~seed:31 ()

let gen_message n =
  let rng = Rng.create n in
  if n mod 2 = 0 then Generator.ham config rng else Generator.spam config rng

(* ------------------------------------------------------------------ *)
(* Span path vs legacy string path                                     *)

(* Collect the span stream as strings (materializing each slice). *)
let span_stream tokenizer m =
  let acc = ref [] in
  Tokenizer.iter_spans tokenizer m
    ~span:(fun buf off len -> acc := String.sub buf off len :: !acc)
    ~token:(fun t -> acc := t :: !acc);
  List.rev !acc

let same_multiset a b =
  List.sort String.compare a = List.sort String.compare b

let check_spans_match tokenizer m =
  let legacy = Tokenizer.tokenize tokenizer m in
  let spans = span_stream tokenizer m in
  if not (same_multiset legacy spans) then
    Alcotest.failf "%s: span stream differs from tokenize\nlegacy: %s\nspans: %s"
      (Tokenizer.name tokenizer)
      (String.concat " | " legacy)
      (String.concat " | " spans)

(* Ingest-level: (unique ids, raw count) vs the legacy pipeline. *)
let check_ids_match tokenizer m =
  let tokens, raw_legacy = Tokenizer.unique_counted_tokens tokenizer m in
  let legacy_ids = Intern.intern_array tokens in
  Array.sort compare legacy_ids;
  let ids, raw_span = Ingest.unique_ids tokenizer m in
  check_int
    (Tokenizer.name tokenizer ^ ": raw count")
    raw_legacy raw_span;
  Alcotest.(check (array int))
    (Tokenizer.name tokenizer ^ ": unique ids")
    legacy_ids ids

let all_tokenizers = List.map snd Tokenizer.all

let fixture_messages =
  [
    msg "plain words only";
    msg "";
    msg ~headers:[ ("Subject", "URGENT free OFFER") ] "Buy NOW at http://spam.biz/cheap-pills or mail bob@corp.example.com";
    msg ~headers:[ ("From", "Eve Attacker <eve@evil.example>"); ("To", "victim@corp.example") ]
      "supercalifragilisticexpialidocious word v-i-a-g-r-a $99 don't";
    (* 8-bit content. *)
    msg "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 plain words";
    (* HTML part. *)
    Mime.make_html
      ~headers:(Header.of_list [ ("Subject", "deal") ])
      "<html><body><a href=\"http://shop.example.com/buy\">Click HERE</a> <b>great deal</b></body></html>";
    (* Base64 transfer encoding. *)
    Mime.with_base64_transfer (msg "hidden spam payload words inside base64");
    (* Quoted-printable. *)
    Mime.with_quoted_printable_transfer (msg "caf\xc3\xa9 offer= great");
    (* Received relay trail. *)
    msg
      ~headers:
        [
          ("Received", "from relay.spam.example (10.7.3.4) by mx.victim.example");
          ("Received", "from 192.168.001.001 by relay.spam.example");
        ]
      "body words here";
  ]

let span_vs_legacy_tests =
  List.concat_map
    (fun tokenizer ->
      let tname = Tokenizer.name tokenizer in
      [
        test_case (tname ^ ": fixtures, span stream = tokenize") (fun () ->
            List.iter (check_spans_match tokenizer) fixture_messages);
        test_case (tname ^ ": fixtures, unique ids = legacy ids") (fun () ->
            List.iter (check_ids_match tokenizer) fixture_messages);
        qtest ~count:60
          (tname ^ ": generated corpus, span stream = tokenize")
          QCheck2.Gen.(int_range 0 10_000)
          (fun n ->
            let m = gen_message n in
            check_spans_match tokenizer m;
            check_ids_match tokenizer m;
            true);
        qtest ~count:120
          (tname ^ ": random bodies (incl. 8-bit), span = legacy")
          QCheck2.Gen.(
            string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 0 200))
          (fun body ->
            let m = msg ~headers:[ ("Subject", "Mixed CASE subject") ] body in
            check_spans_match tokenizer m;
            check_ids_match tokenizer m;
            true);
      ])
    all_tokenizers

(* ------------------------------------------------------------------ *)
(* intern_sub vs intern                                                *)

let intern_sub_tests =
  [
    qtest ~count:300 "intern_sub agrees with id on every slice"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 60))
          (pair (int_range 0 60) (int_range 0 60)))
      (fun (s, (a, b)) ->
        let n = String.length s in
        let off = min a n in
        let len = min b (n - off) in
        Intern.intern_sub s off len = Intern.id (String.sub s off len));
    qtest ~count:300 "find_sub agrees with find"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(char_range 'a' 'd') (int_range 0 8))
          (string_size ~gen:(char_range 'a' 'd') (int_range 0 8)))
      (fun (prefix, w) ->
        let s = prefix ^ w in
        let off = String.length prefix in
        let len = String.length w in
        Intern.find_sub s off len = Intern.find w);
    test_case "intern_sub validates slices" (fun () ->
        Alcotest.check_raises "negative off"
          (Invalid_argument "Intern.intern_sub") (fun () ->
            ignore (Intern.intern_sub "abc" (-1) 2));
        Alcotest.check_raises "past end"
          (Invalid_argument "Intern.intern_sub") (fun () ->
            ignore (Intern.intern_sub "abc" 2 2)));
    test_case "intern_sub after freeze stays consistent" (fun () ->
        let s = "freeze-slice-token-xyzzy plus tail" in
        let id0 = Intern.intern_sub s 0 24 in
        Intern.freeze ();
        check_int "frozen lookup" id0 (Intern.intern_sub s 0 24);
        check_int "string path" id0 (Intern.id (String.sub s 0 24)));
  ]

(* ------------------------------------------------------------------ *)
(* Raw mbox path                                                       *)

(* Reference: parse with the string pipeline, drop ignored headers,
   then run the span path on the resulting message. *)
let strip_ignored m =
  let kept =
    List.filter
      (fun (name, _) -> not (Ingest.ignored_header name))
      (Header.to_list (Message.headers m))
  in
  Message.make ~headers:(Header.of_list kept) (Message.body m)

let check_raw_matches tokenizer text =
  let reference =
    List.map
      (fun m -> Ingest.unique_ids tokenizer (strip_ignored m))
      (fst (Mbox.parse_lenient text))
  in
  let raw =
    List.filter_map
      (fun (off, len) -> Ingest.unique_ids_raw tokenizer text ~off ~len)
      (Array.to_list (Ingest.raw_message_chunks text))
  in
  check_int "message count" (List.length reference) (List.length raw);
  List.iter2
    (fun (ids_ref, raw_ref) (ids_raw, raw_raw) ->
      check_int "raw token count" raw_ref raw_raw;
      Alcotest.(check (array int)) "ids" ids_ref ids_raw)
    reference raw

let mbox_of_messages msgs = Mbox.print msgs

let raw_fixture_mbox =
  mbox_of_messages
    [
      msg
        ~headers:
          [
            ("From", "alice@corp.example");
            ("Subject", "quarterly numbers");
            ("Date", "Thu, 1 Jan 1970 00:00:00 +0000");
            ("Message-Id", "<1@corp.example>");
            ("X-Spam-Status", "No, score=-1.2");
          ]
        "the numbers look Good this quarter";
      msg
        ~headers:[ ("Subject", "Free OFFER"); ("List-Id", "<bulk.example>") ]
        "visit http://spam.biz/offer NOW caf\xc3\xa9";
      (* Body needing >From unquoting. *)
      msg ~headers:[ ("Subject", "quoting") ] "From the start\nof the line";
      (* Folded header. *)
      Message.make
        ~headers:(Header.of_list [ ("Subject", "folded\nacross lines") ])
        "short body";
      Mime.with_base64_transfer
        (msg ~headers:[ ("Subject", "encoded") ] "base64 encoded body words");
    ]

let raw_tests =
  List.concat_map
    (fun tokenizer ->
      let tname = Tokenizer.name tokenizer in
      [
        test_case (tname ^ ": raw mbox = parse+suppress+spans") (fun () ->
            check_raw_matches tokenizer raw_fixture_mbox);
        test_case (tname ^ ": torn mbox drops the torn tail only") (fun () ->
            (* Cut mid-header-line so the last chunk is malformed. *)
            let cut = String.length raw_fixture_mbox - 40 in
            let torn = String.sub raw_fixture_mbox 0 cut ^ "\nbroken header line without colon\nx" in
            check_raw_matches tokenizer torn);
        qtest ~count:25 (tname ^ ": generated mboxes, raw = reference")
          QCheck2.Gen.(int_range 0 1_000)
          (fun n ->
            let msgs = List.init 4 (fun i -> gen_message ((4 * n) + i)) in
            check_raw_matches tokenizer (mbox_of_messages msgs);
            true);
      ])
    all_tokenizers

let suppression_tests =
  [
    test_case "ignored_header: bookkeeping suppressed, mined kept" (fun () ->
        List.iter
          (fun h -> check_bool h true (Ingest.ignored_header h))
          [ "Date"; "Message-Id"; "X-Spam-Status"; "List-Id"; "MIME-Version"; "return-path" ];
        List.iter
          (fun h -> check_bool h false (Ingest.ignored_header h))
          [ "Subject"; "From"; "To"; "Reply-To"; "Received"; "Content-Type";
            "Content-Transfer-Encoding"; "X-Mailer" ]);
    test_case "raw path drops suppressed header tokens" (fun () ->
        let text =
          mbox_of_messages
            [ msg ~headers:[ ("X-Spam-Status", "yes hits=99 spamword") ] "plain body" ]
        in
        let chunks = Ingest.raw_message_chunks text in
        check_int "one chunk" 1 (Array.length chunks);
        let off, len = chunks.(0) in
        let ids, _ =
          Option.get (Ingest.unique_ids_raw Tokenizer.bogofilter text ~off ~len)
        in
        let tokens = Array.map Intern.to_string ids in
        check_bool "no x-spam token" false
          (Array.exists
             (fun t ->
               String.length t >= 7 && String.sub t 0 7 = "x-spam-")
             tokens));
    test_case "empty and whitespace mboxes have no chunks" (fun () ->
        check_int "empty" 0 (Array.length (Ingest.raw_message_chunks ""));
        check_int "ws" 0 (Array.length (Ingest.raw_message_chunks " \n\t\n")));
  ]

(* ------------------------------------------------------------------ *)
(* Edge divergence: separator and tail shapes where the raw chunker
   and the lenient string parser historically disagreed               *)

(* Stronger oracle: besides token agreement on surviving messages, the
   two sides must agree on how many chunks exist and how many were
   quarantined. *)
let check_edge_agreement text =
  let kept, dropped = Mbox.parse_lenient text in
  let chunks = Ingest.raw_message_chunks text in
  let raw_kept =
    Array.to_list chunks
    |> List.filter_map (fun (off, len) ->
           Ingest.unique_ids_raw Tokenizer.bogofilter text ~off ~len)
  in
  check_int "chunks = kept + dropped" (List.length kept + dropped)
    (Array.length chunks);
  check_int "raw kept count" (List.length kept) (List.length raw_kept);
  check_raw_matches Tokenizer.bogofilter text

let sep = "From a@b Thu Jan  1 00:00:00 1970\n"

(* Building blocks for the concatenation fuzz: every shape that has
   ever confused one side of the pipeline. *)
let edge_pieces =
  [|
    sep;
    "From a@b Thu Jan  1 00:00:00 1970\r\n";
    "Subject: hello world\n";
    "Subject: crlf line\r\n";
    "X-Spam-Status: suppressed stuff\n";
    "\tcontinuation line\n";
    "\r\n";
    "\n";
    "plain body words here\n";
    ">From quoted body line\n";
    "broken header line no colon\n";
    "torn tail without newline";
  |]

let edge_tests =
  [
    test_case "CRLF-terminated From separators split identically" (fun () ->
        check_edge_agreement
          ("From a@b Thu Jan  1 00:00:00 1970\r\nSubject: one\r\n\r\n\
            body line\r\n\
            From c@d Thu Jan  1 00:00:00 1970\r\nSubject: two\r\n\r\n\
            more body\r\n"));
    test_case "torn final message without trailing newline" (fun () ->
        check_edge_agreement
          (sep ^ "Subject: whole\n\nbody\n" ^ sep ^ "Subject: torn\n\ncut of"));
    test_case "torn final headers (no blank line) quarantined on both sides"
      (fun () ->
        check_edge_agreement
          (sep ^ "Subject: whole\n\nbody\n" ^ sep ^ "Subject: no bo"));
    test_case "mbox ending in a bare separator adds no phantom message"
      (fun () ->
        (* Regression: the chunker used to emit a final empty chunk for
           a trailing separator, which the string parser never saw. *)
        check_edge_agreement (sep ^ "Subject: only\n\nbody\n" ^ sep));
    test_case "continuation of a suppressed header stays suppressed"
      (fun () ->
        (* Regression: a folded continuation after an ignored header
           made the raw path declare the whole chunk malformed. *)
        check_edge_agreement
          (sep
          ^ "X-Spam-Status: ignored value\n\tcontinuation line\n\
             Subject: kept\n\nbody words\n"));
    test_case "continuation as the first header line is malformed on both"
      (fun () ->
        check_edge_agreement (sep ^ "\tdangling continuation\n\nbody\n"));
    qtest ~count:400 "piece concatenations: chunker = lenient parser"
      QCheck2.Gen.(
        list_size (int_range 0 12)
          (int_range 0 (Array.length edge_pieces - 1)))
      (fun picks ->
        let text = String.concat "" (List.map (Array.get edge_pieces) picks) in
        check_edge_agreement text;
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation: body words of a Simple chunk cost no minor words         *)

(* A Simple chunk (no MIME headers, no CRLF, no ">From") whose body is
   [n] in-range words for every tokenizer, half of them capitalized,
   ten to a line. *)
let simple_chunk n =
  let word i =
    let w = Printf.sprintf "quietword%02d" (i mod 53) in
    if i mod 2 = 0 then String.capitalize_ascii w else w
  in
  let line l =
    String.concat " " (List.init (min 10 (n - (10 * l))) (fun j -> word ((10 * l) + j)))
  in
  "Subject: steady state\n\n"
  ^ String.concat "\n" (List.init ((n + 9) / 10) line)
  ^ "\n"

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let alloc_tests =
  List.map
    (fun tokenizer ->
      test_case
        (Tokenizer.name tokenizer ^ ": body words allocate nothing")
        (fun () ->
          let small = simple_chunk 50 and big = simple_chunk 5_000 in
          let ingest chunk () =
            ignore
              (Ingest.with_unique_ids_raw tokenizer chunk ~off:0
                 ~len:(String.length chunk) (fun _ids distinct _raw -> distinct))
          in
          let run_small = ingest small and run_big = ingest big in
          (* Intern every token and publish the snapshot, then grow the
             per-domain scratch to the big message once. *)
          run_big ();
          Intern.freeze ();
          run_big ();
          let at_50 = minor_words_of run_small in
          let at_5000 = minor_words_of run_big in
          Alcotest.(check (float 0.))
            "minor words at N = 50 and N = 5,000" at_50 at_5000))
    all_tokenizers

(* ------------------------------------------------------------------ *)
(* Batched classify                                                    *)

let classify_tests =
  [
    test_case "classify_many agrees with per-message classify" (fun () ->
        let filter = Filter.create () in
        let rng = Rng.create 5 in
        let train =
          List.init 30 (fun _ -> (Label.Ham, Generator.ham config rng))
          @ List.init 30 (fun _ -> (Label.Spam, Generator.spam config rng))
        in
        Filter.train_corpus filter train;
        let test_msgs = Array.init 40 gen_message in
        let batched = Filter.classify_many filter test_msgs in
        Array.iteri
          (fun i m ->
            let single = Filter.classify filter m in
            let b = batched.(i) in
            Alcotest.(check (float 1e-12))
              "indicator" single.Classify.indicator b.Classify.indicator;
            check_bool "verdict" true
              (single.Classify.verdict = b.Classify.verdict);
            check_bool "clues" true (single.Classify.clues = b.Classify.clues))
          test_msgs);
    test_case "classify_mbox classifies every chunk" (fun () ->
        let filter = Filter.create () in
        let rng = Rng.create 6 in
        Filter.train_corpus filter
          (List.init 20 (fun _ -> (Label.Ham, Generator.ham config rng))
          @ List.init 20 (fun _ -> (Label.Spam, Generator.spam config rng)));
        let msgs = List.init 10 gen_message in
        let text = mbox_of_messages msgs in
        let results = Filter.classify_mbox filter text in
        check_int "count" 10 (Array.length results);
        Array.iter (fun r -> check_bool "parsed" true (Option.is_some r)) results);
  ]

let () =
  Alcotest.run "ingest"
    [
      ("span-vs-legacy", span_vs_legacy_tests);
      ("intern-sub", intern_sub_tests);
      ("raw-mbox", raw_tests);
      ("suppression", suppression_tests);
      ("edge-divergence", edge_tests);
      ("allocation", alloc_tests);
      ("classify", classify_tests);
    ]

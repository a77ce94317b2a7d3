(* Differential tests for the zero-copy ingest path: the span tokenizers
   (and the string API derived from them) must agree with the
   hand-written string tokenizers of the test oracle on every registered
   tokenizer, token for token, and the raw-mbox path must agree with
   parse-then-tokenize after header suppression. *)

open Spamlab_tokenizer
module Oracle = Spamlab_oracle
module Header = Spamlab_email.Header
module Message = Spamlab_email.Message
module Mime = Spamlab_email.Mime
module Mbox = Spamlab_email.Mbox
module Intern = Spamlab_spambayes.Intern
module Ingest = Spamlab_spambayes.Ingest
module Classify = Spamlab_spambayes.Classify
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Options = Spamlab_spambayes.Options
module Prob_cache = Spamlab_spambayes.Prob_cache
module Token_db = Spamlab_spambayes.Token_db
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

(* [with_unique_ids]'s distinct ids, copied out, and the raw count. *)
let unique_ids tokenizer m =
  Ingest.with_unique_ids tokenizer m (fun ids n raw -> (Array.sub ids 0 n, raw))

(* ------------------------------------------------------------------ *)
(* Span path vs the oracle's string tokenizers                         *)

(* [Tokenizer.tokenize] is the span stream with each slice copied out;
   it must be the oracle's stream as a sequence, not just a multiset. *)
let check_spans_match tokenizer m =
  let oracle = Oracle.tokenize tokenizer m in
  let spans = Tokenizer.tokenize tokenizer m in
  if oracle <> spans then
    Alcotest.failf "%s: span stream differs from the oracle\noracle: %s\nspans: %s"
      (Tokenizer.name tokenizer)
      (String.concat " | " oracle)
      (String.concat " | " spans)

(* Ingest-level: (unique ids, raw count) vs the oracle's list pipeline. *)
let check_ids_match tokenizer m =
  let tokens, raw_legacy =
    Oracle.unique_counted (Oracle.tokenize tokenizer m)
  in
  let legacy_ids = Intern.intern_array tokens in
  Array.sort compare legacy_ids;
  let ids, raw_span = unique_ids tokenizer m in
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
        test_case (tname ^ ": fixtures, span stream = oracle tokenize") (fun () ->
            List.iter (check_spans_match tokenizer) fixture_messages);
        test_case (tname ^ ": fixtures, unique ids = legacy ids") (fun () ->
            List.iter (check_ids_match tokenizer) fixture_messages);
        qtest ~count:60
          (tname ^ ": generated corpus, span stream = oracle tokenize")
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
      (fun m -> unique_ids tokenizer (strip_ignored m))
      (fst (Mbox.parse_lenient text))
  in
  let raw =
    List.filter_map
      (fun (off, len) -> Ingest.unique_ids_raw tokenizer text ~off ~len)
      (Array.to_list (Mbox.chunks text))
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
      (* 8-bit body ending in a newline, not last in the mailbox: its
         length shows in the 8bit% token. *)
      msg ~headers:[ ("Subject", "accents") ] "\xc3\xa9t\xc3\xa9 words\n";
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
        let chunks = Mbox.chunks text in
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
        check_int "empty" 0 (Array.length (Mbox.chunks ""));
        check_int "ws" 0 (Array.length (Mbox.chunks " \n\t\n")));
  ]

(* ------------------------------------------------------------------ *)
(* Edge divergence: separator and tail shapes where the raw chunker
   and the lenient string parser historically disagreed               *)

(* Stronger oracle: besides token agreement on surviving messages, the
   two sides must agree on how many chunks exist and how many were
   quarantined. *)
let check_edge_agreement text =
  let kept, dropped = Mbox.parse_lenient text in
  let chunks = Mbox.chunks text in
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
    test_case "header unfolding is linear in continuation lines" (fun () ->
        (* Linear code allocates about 4x at 4x the lines; joining the
           value line by line allocates about 16x. *)
        let folded n =
          "Subject: start\n" ^ String.concat "" (List.init n (fun _ -> "\tword\n"))
          ^ "\nbody\n"
        in
        (* The least of five runs, each from an empty minor heap: a
           collection inside a run can inflate its count. *)
        let allocated text =
          let run () =
            Gc.minor ();
            let before = Gc.allocated_bytes () in
            ignore
              (Ingest.with_unique_ids_raw Tokenizer.spambayes text ~off:0
                 ~len:(String.length text) (fun _ids distinct _raw -> distinct));
            Gc.allocated_bytes () -. before
          in
          List.fold_left min infinity (List.init 5 (fun _ -> run ()))
        in
        let ratio = allocated (folded 8_000) /. allocated (folded 2_000) in
        if ratio >= 6.0 then
          Alcotest.failf "8,000 continuation lines allocate %.1fx what 2,000 do" ratio);
  ]

(* ------------------------------------------------------------------ *)
(* The offset decoder against the oracle's string walk                 *)

(* Random MIME: nested multiparts (to depth 5 and past it) with
   preambles, epilogues, quoted and unquoted boundaries and missing or
   mismatched delimiters; base64 with invalid bytes and whitespace;
   quoted-printable with soft breaks and bad escapes; HTML with
   entities, comments, script/style, unterminated tags and href/src;
   CRLF line ends, ">From" lines, 8-bit bytes and malformed part
   headers. *)
module Mime_gen = struct
  open QCheck2.Gen

  let word =
    oneofl
      [ "alpha"; "Bravo"; "CHARLIE"; "d"; "echo's"; "$99"; "x-ray"; "v-i-a-g-r-a";
        "http://spam.example/buy-now"; "HTTPS://Shop.Example:8080/Deal?x=1";
        "www.cheap.example"; "bob@corp.example"; "supercalifragilistic";
        "caf\xc3\xa9"; "\xff\xfe8bit"; "\xe9\xe9\xe9\xe9"; "na\xefve"; "\xe9t\xe9";
        "From"; ">From"; "From "; "\nFrom "; "\n>From "; ":"; "@"; "=3D";
        "&amp;"; "<b>"; "--B1"; "--b-2--"; "Content-Type:"; "=" ]

  let sep = oneofl [ " "; " "; "\n"; "\r\n"; "\t"; "" ]

  let text =
    map
      (fun ws -> String.concat "" (List.map (fun (w, s) -> w ^ s) ws))
      (list_size (int_range 0 10) (pair word sep))

  let html_piece =
    oneof
      [
        word;
        oneofl
          [ "<a href=\"http://x.example/path-one\">"; "<A HREF='http://Y.example/Two'>";
            "<img src=http://img.example/p.gif>"; "<IMG SRC=\"\">"; "</a>"; "<b>";
            "</B>"; "<!-- hidden words -->"; "<!--"; "-->"; "<script>var evil = 1;</script>";
            "<STYLE>p {}</style>"; "<script>"; "</script"; "</SCRIPT >"; "<"; ">"; "</";
            "&amp;"; "&lt;b&gt;"; "&LT;i&GT;"; "&#65;"; "&#300;"; "&#0;"; "&nbsp;";
            "&zzz;"; "&"; ";"; "&#;"; "&amp"; "&#000065;"; "&#0000065;"; "&#x41;"; "&#255;"; "&#256;";
            "<iframe src=\"http://f.example\">";
            "<a src=\"http://one.example/s\" href=\"http://two.example/h\">";
            "<font size=1>"; "<table>"; "<form><input>"; "<p>"; " "; "\n"; "\r\n";
            "<a xsrc=http://z.example/q>"; "<a href=\"unterminated" ];
      ]

  let html = map (String.concat "") (list_size (int_range 0 16) html_piece)

  (* Inject [pieces] at random points of [s]. *)
  let sprinkle pieces s =
    map
      (fun picks ->
        List.fold_left
          (fun s (pos, piece) ->
            let pos = if s = "" then 0 else pos mod (String.length s + 1) in
            String.sub s 0 pos ^ piece ^ String.sub s pos (String.length s - pos))
          s picks)
      (list_size (int_range 0 3) (pair (int_range 0 10_000) (oneofl pieces)))

  let base64_body plain =
    oneof
      [
        return (Spamlab_email.Encoding.base64_encode plain);
        sprinkle [ " "; "\n"; "\r\n"; "="; "*"; "\xe9"; "-" ]
          (Spamlab_email.Encoding.base64_encode plain);
        return plain;
      ]

  let qp_body plain =
    oneof
      [
        return (Spamlab_email.Encoding.quoted_printable_encode plain);
        sprinkle [ "=\n"; "=\r\n"; "=ZZ"; "=4"; "="; "=e9"; "=3d" ]
          (Spamlab_email.Encoding.quoted_printable_encode plain);
        return plain;
      ]

  let encoded plain =
    oneof
      [
        return ([], plain);
        map (fun b -> ([ ("Content-Transfer-Encoding", "base64") ], b)) (base64_body plain);
        map (fun b -> ([ ("Content-Transfer-Encoding", " Base64 ") ], b)) (base64_body plain);
        map
          (fun b -> ([ ("Content-Transfer-Encoding", "quoted-printable") ], b))
          (qp_body plain);
        map (fun b -> ([ ("Content-Transfer-Encoding", "QUOTED-PRINTABLE") ], b)) (qp_body plain);
        return ([ ("Content-Transfer-Encoding", "7bit") ], plain);
        return ([ ("Content-Transfer-Encoding", "x-zip") ], plain);
      ]

  let leaf =
    oneof
      [
        bind text (fun t -> map (fun (h, b) -> (h, b)) (encoded t));
        bind text (fun t ->
            map (fun (h, b) -> (("Content-Type", "text/plain; charset=us-ascii") :: h, b)) (encoded t));
        bind html (fun t ->
            map (fun (h, b) -> (("Content-Type", "text/html") :: h, b)) (encoded t));
        bind html (fun t -> map (fun (h, b) -> (("Content-Type", "TEXT/HTML; x=1") :: h, b)) (encoded t));
        map (fun t -> ([ ("Content-Type", "image/gif") ], t)) text;
        map (fun t -> ([ ("Content-Type", "texthtml") ], t)) text;
        map (fun t -> ([ ("Content-Type", "text/ html") ], t)) html;
      ]

  let boundary = oneofl [ "B1"; "b-2"; "=_x"; "outer"; "a b"; "B1--" ]

  let header_block nl headers =
    String.concat "" (List.map (fun (n, v) -> n ^ ": " ^ v ^ nl) headers)

  (* A part's header block, sometimes folded or malformed. *)
  let part_text nl (headers, body) =
    map
      (fun shape ->
        let block =
          match shape with
          | 0 -> header_block nl headers
          | 1 -> "garbage line without colon" ^ nl ^ header_block nl headers
          | 2 -> "\tdangling continuation" ^ nl ^ header_block nl headers
          | 3 ->
              String.concat ""
                (List.map (fun (n, v) -> n ^ ":" ^ nl ^ "\t" ^ v ^ nl) headers)
          | 4 -> header_block nl (headers @ [ ("content-TYPE", "text/html") ])
          | _ -> header_block nl headers ^ "X-Other: one" ^ nl ^ " two" ^ nl
        in
        block ^ nl ^ body)
      (int_range 0 6)

  let rec entity depth = if depth > 6 then leaf else with_parts depth

  and with_parts depth =
    let multipart =
      bind
        (tup6 boundary (int_range 0 4) (oneofl [ "\n"; "\r\n"; "\012\n"; " \r\n" ])
           (list_size (int_range 0 (if depth < 2 then 3 else 2)) (entity (depth + 1)))
           (pair text text) (int_range 0 3))
        (fun (b, ct_shape, nl, parts, (preamble, epilogue), ending) ->
          let ct =
            match ct_shape with
            | 0 -> "multipart/mixed; boundary=\"" ^ b ^ "\""
            | 1 -> "multipart/alternative; boundary=" ^ b
            | 2 -> "Multipart/Mixed; charset=x; BOUNDARY=\"" ^ b ^ "\"; boundary=other"
            | 3 -> "multipart/mixed"
            | _ -> "multipart/mixed; boundary=\"\""
          in
          map
            (fun rendered ->
              let delim = "--" ^ b in
              let body =
                preamble ^ nl
                ^ String.concat "" (List.map (fun p -> delim ^ nl ^ p ^ nl) rendered)
                ^ (match ending with
                  | 0 -> delim ^ "--" ^ nl
                  | 1 -> "  " ^ delim ^ "-- " ^ nl
                  | 2 -> "--" ^ b ^ "x--" ^ nl
                  | _ -> "")
                ^ epilogue
              in
              ([ ("Content-Type", ct) ], body))
            (flatten_l (List.map (part_text nl) parts)))
    in
    frequency [ (3, leaf); ((if depth < 2 then 3 else 1), multipart) ]

  (* A leaf nested in [k] single-part multiparts: the depth limit. *)
  let rec chain k =
    if k = 0 then leaf
    else
      map
        (fun (headers, body) ->
          let b = "L" ^ string_of_int k in
          ( [ ("Content-Type", "multipart/mixed; boundary=" ^ b) ],
            "--" ^ b ^ "\n" ^ header_block "\n" headers ^ "\n" ^ body ^ "\n--" ^ b ^ "--\n" ))
        (chain (k - 1))

  let message =
    map
      (fun ((headers, body), subject, ignored) ->
        let top =
          [ ("Subject", subject); ("From", "Eve Attacker <eve@evil.example>") ]
          @ (if ignored then [ ("Date", "Thu, 1 Jan 1970"); ("Message-Id", "<1@x>") ] else [])
        in
        Message.make ~headers:(Header.of_list (top @ headers)) body)
      (triple
         (frequency [ (4, entity 0); (1, bind (int_range 3 7) chain) ])
         (oneofl [ "Free OFFER now"; "re: numbers"; "" ])
         bool)

  let print m = String.escaped (Spamlab_email.Rfc2822.print m)
end

(* The raw chunk's token stream, as a sequence. *)
let raw_tokens tokenizer text ~off ~len =
  let acc = ref [] in
  let ok =
    Ingest.iter_raw_spans tokenizer text ~off ~len
      ~span:(fun b o l -> acc := String.sub b o l :: !acc)
      ~token:(fun t -> acc := t :: !acc)
  in
  if ok then Some (List.rev !acc) else None

let check_decoder tokenizer m =
  let tname = Tokenizer.name tokenizer in
  let same what want got =
    if want <> got then
      Alcotest.failf "%s, %s: token streams differ\noracle: %s\ndecoder: %s" tname what
        (String.concat " | " want) (String.concat " | " got)
  in
  same "Message.t" (Oracle.tokenize tokenizer m) (Tokenizer.tokenize tokenizer m);
  let text = Mbox.print [ m ] in
  let want = List.map (fun p -> Oracle.tokenize tokenizer (strip_ignored p)) (fst (Mbox.parse_lenient text)) in
  let got =
    List.filter_map
      (fun (off, len) -> raw_tokens tokenizer text ~off ~len)
      (Array.to_list (Mbox.chunks text))
  in
  check_int (tname ^ ": raw messages") (List.length want) (List.length got);
  List.iter2 (same "raw chunk") want got

(* Fixed cases from the counterexamples the generator shrank against
   decoders broken on purpose, one per rule they broke. *)
let decoder_fixtures =
  let mime ct ?cte body =
    Message.make
      ~headers:
        (Header.of_list
           ([ ("Subject", "Free OFFER now"); ("Content-Type", ct) ]
           @ match cte with None -> [] | Some e -> [ ("Content-Transfer-Encoding", e) ]))
      body
  in
  let rec chain k inner =
    if k = 0 then inner
    else
      let b = "L" ^ string_of_int k in
      chain (k - 1)
        ("Content-Type: multipart/mixed; boundary=" ^ b ^ "\n\n--" ^ b ^ "\n" ^ inner ^ "\n--" ^ b
       ^ "--\n")
  in
  [
    (* Parts nested past the depth limit contribute nothing. *)
    ("depth limit", mime "multipart/mixed; boundary=L0"
       ("--L0\n" ^ chain 5 "Content-Type: text/plain\n\ndeep words caf\xc3\xa9" ^ "\n--L0--\n"));
    ("depth 4 still read", mime "multipart/mixed; boundary=L0"
       ("--L0\n" ^ chain 3 "Content-Type: text/plain\n\ndeep words" ^ "\n--L0--\n"));
    (* A part body loses one CR per line, which moves the 8bit% share. *)
    ("CRLF part body", mime "multipart/mixed; boundary=L1"
       "--L1\n\n\nFrom \r\ncaf\xc3\xa9 \r\n\r\r\n--L1--\n");
    (* Only a ';' at most 8 bytes after the '&' closes an entity. *)
    ("entity bound", mime "text/html" "alpha&#000065; alpha&#0000065; &#255; &#256; &LT;b&GT;x");
    (* Delimiter lines are trimmed as String.trim trims, form feed
       included. *)
    ("form feed delimiter", mime "multipart/mixed; boundary=\"a b\""
       "\n--a b\012\nContent-Type: text/plain\n\nfirst part\n\012--a b--\012\nepilogue words\n");
    (* A tag's hrefs come before its srcs. *)
    ("href before src", mime "text/html"
       "<a src=\"http://one.example/s\" href=\"http://two.example/h\">link</a>");
    (* The first Content-Type of a part wins. *)
    ("first content type", mime "multipart/mixed; boundary=b-2"
       "--b-2\nContent-Type: text/plain\ncontent-TYPE: text/html\n\n<b>bold</b> words\n--b-2--\n");
    (* A continuation before any field makes the part malformed. *)
    ("orphan continuation", mime "multipart/mixed; boundary=B1"
       "--B1\n\tdangling continuation\nContent-Type: text/html\n\n<b>x</b>\n--B1\n\nkept\n--B1--\n");
    (* ">From " lines are unquoted before the 8bit% share is taken. *)
    ("quoted From", Message.make ~headers:(Header.of_list [ ("Subject", "quoting") ])
       "caf\xc3\xa9\n>From here\nFrom there\n\xe9\xe9");
    (* A base64 body with a byte outside the alphabet stays as it is. *)
    ("base64 invalid byte", mime "text/plain" ~cte:"base64" "echo's Zm9v");
    (* A multipart none of whose parts parses is one Plain leaf. *)
    ("no part parses", mime "multipart/mixed; boundary=\"B1\""
       "\n--B1\nbroken line\n\n--B1\nContent-Type: multipart/mixed; boundary=\"B1\"\n\n\n--B1--\n\n--B1--\n");
  ]

let decoder_tests =
  [
    test_case "fixed cases: decoder stream = oracle stream, all tokenizers" (fun () ->
        List.iter
          (fun (_, m) -> List.iter (fun t -> check_decoder t m) all_tokenizers)
          decoder_fixtures);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~print:Mime_gen.print
         ~name:"random MIME: decoder stream = oracle stream, all tokenizers"
         Mime_gen.message (fun m ->
           List.iter (fun t -> check_decoder t m) all_tokenizers;
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation: body words of a Simple chunk cost no minor words         *)

(* A Simple chunk (no MIME headers, no CRLF, no ">From") whose body is
   [n] in-range words for every tokenizer, [word i] for i < n, half of
   them capitalized, ten to a line. *)
let chunk_of_words n word =
  let word i =
    let w = word i in
    if i mod 2 = 0 then String.capitalize_ascii w else w
  in
  let line l =
    String.concat " " (List.init (min 10 (n - (10 * l))) (fun j -> word ((10 * l) + j)))
  in
  "Subject: steady state\n\n"
  ^ String.concat "\n" (List.init ((n + 9) / 10) line)
  ^ "\n"

let simple_chunk n = chunk_of_words n (fun i -> Printf.sprintf "quietword%02d" (i mod 53))

(* [n] words no earlier call produced: "zz" and six letters of a
   process-wide serial, so every word has the same length. *)
let unseen_serial = ref 0

let unseen_chunk n =
  chunk_of_words n (fun _ ->
      incr unseen_serial;
      let w = Bytes.make 8 'z' and x = ref !unseen_serial in
      for p = 7 downto 2 do
        Bytes.set w p (Char.chr (Char.code 'a' + (!x mod 26)));
        x := !x / 26
      done;
      Bytes.to_string w)

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
  @ List.map
      (fun tokenizer ->
        test_case
          (Tokenizer.name tokenizer ^ ": scoring never-seen words allocates nothing")
          (fun () ->
            (* Scoring looks words up instead of interning them, so
               words no table holds cost neither their strings nor a
               table slot.  Fresh words on every run: a word interned
               by an earlier run would be found, not missed. *)
            let engine =
              Classify.engine_cached (Prob_cache.create Options.default (Token_db.create ()))
            in
            let score chunk () =
              ignore
                (Ingest.classify_raw_engine engine tokenizer chunk ~off:0
                   ~len:(String.length chunk))
            in
            score (unseen_chunk 5_000) ();
            Intern.freeze ();
            let small = unseen_chunk 50 and big = unseen_chunk 5_000 in
            let size = Intern.size () in
            let at_50 = minor_words_of (score small) in
            let at_5000 = minor_words_of (score big) in
            check_int "intern table size" size (Intern.size ());
            Alcotest.(check (float 0.))
              "minor words at N = 50 and N = 5,000" at_50 at_5000))
      all_tokenizers

(* Mail that needs decoding: [n] in-range words, half capitalized, ten
   to a line, as a base64 body, a quoted-printable body, single-part
   HTML (tags, entities and one link per message) and a two-part
   multipart/alternative.  Each is read in place or decoded into
   per-domain scratch, so none may allocate per body word. *)
let words_lines n ~line =
  let word i =
    let w = Printf.sprintf "quietword%02d" (i mod 53) in
    if i mod 2 = 0 then String.capitalize_ascii w else w
  in
  String.concat "\n"
    (List.init ((n + 9) / 10) (fun l ->
         line (String.concat " " (List.init (min 10 (n - (10 * l))) (fun j -> word ((10 * l) + j))))))

let html_body n =
  "<html><body><p>"
  ^ words_lines n ~line:(fun l -> "<b>" ^ l ^ "</b> &amp; caf&#233;<br>")
  ^ "<a href=\"http://shop.example/buy\">here</a></body></html>"

let mime_chunks =
  let chunk headers body = "Subject: steady state\n" ^ headers ^ "\n" ^ body ^ "\n" in
  let plain n = words_lines n ~line:Fun.id in
  [
    ( "a base64 message",
      fun n ->
        chunk "Content-Transfer-Encoding: base64\n" (Spamlab_email.Encoding.base64_encode (plain n)) );
    ( "a quoted-printable message",
      fun n ->
        chunk "Content-Transfer-Encoding: quoted-printable\n"
          (Spamlab_email.Encoding.quoted_printable_encode (words_lines n ~line:(fun l -> l ^ " caf\xe9=")))
    );
    ("a single-part HTML message", fun n -> chunk "Content-Type: text/html\n" (html_body n));
    ( "a two-part multipart message",
      fun n ->
        chunk "Content-Type: multipart/alternative; boundary=\"B42\"\n"
          ("--B42\nContent-Type: text/plain\n\n" ^ plain (n / 2)
         ^ "\n--B42\nContent-Type: text/html\n\n" ^ html_body (n - (n / 2)) ^ "\n--B42--\n") );
  ]

(* The least of five runs, each from an empty minor heap: a collection
   inside a run can inflate its count. *)
let least_minor_words f =
  List.fold_left min infinity
    (List.init 5 (fun _ ->
         Gc.minor ();
         minor_words_of f))

let mime_alloc_tests =
  List.concat_map
    (fun tokenizer ->
      List.map
        (fun (what, make) ->
          test_case
            (Printf.sprintf "%s: scoring %s allocates nothing per body word"
               (Tokenizer.name tokenizer) what)
            (fun () ->
              let small = make 50 and big = make 5_000 in
              let len chunk = String.length chunk in
              (* Intern every token and publish the snapshot; then grow
                 the per-domain scratch to the big message once. *)
              List.iter
                (fun c -> ignore (Ingest.unique_ids_raw tokenizer c ~off:0 ~len:(len c)))
                [ small; big ];
              Intern.freeze ();
              let engine =
                Classify.engine_cached (Prob_cache.create Options.default (Token_db.create ()))
              in
              let score chunk () =
                ignore (Ingest.classify_raw_engine engine tokenizer chunk ~off:0 ~len:(len chunk))
              in
              score big ();
              let at_50 = least_minor_words (score small) in
              let at_5000 = least_minor_words (score big) in
              Alcotest.(check (float 0.)) "minor words at N = 50 and N = 5,000" at_50 at_5000))
        mime_chunks)
    all_tokenizers

(* ------------------------------------------------------------------ *)
(* Scoring looks tokens up; the interning path is the reference        *)

(* Forty trained words, the first twenty ham-only and the rest
   spam-only, each in a different share of its class's messages so
   their scores spread over the strength band. *)
let lexicon = Array.init 40 (Printf.sprintf "lexicon%02d")

let lexicon_db tokenizer =
  let f = Filter.create ~tokenizer () in
  for m = 0 to 11 do
    let words lo =
      List.init 20 (fun i -> i)
      |> List.filter (fun i -> (i + m) mod (2 + (i mod 4)) <> 0)
      |> List.map (fun i -> lexicon.(lo + i))
      |> String.concat " "
    in
    Filter.train f Label.Ham (msg ~headers:[ ("Subject", "lexicon ham") ] (words 0));
    Filter.train f Label.Spam (msg ~headers:[ ("Subject", "lexicon spam") ] (words 20))
  done;
  Filter.db f

let lexicon_dbs = List.map (fun t -> (t, lazy (lexicon_db t))) all_tokenizers

(* Under [Options.default] a never-seen token scores 0.5 and is never a
   clue; at [unknown_word_prob = 0.2] it is, so scoring must intern. *)
let unseen_scores = { Options.default with unknown_word_prob = 0.2 }

let lookup_run = ref 0

(* Messages of trained and never-seen words, in Subject and body; a
   [mime] message is base64-encoded, so it takes the Complex path. *)
let lexicon_mbox messages =
  incr lookup_run;
  let word (fresh, i) =
    if fresh then Printf.sprintf "novel%dx%d" !lookup_run i else lexicon.(i)
  in
  mbox_of_messages
    (List.map
       (fun (mime, words) ->
         let words = List.map word words in
         let subject = String.concat " " (List.filteri (fun i _ -> i < 2) words) in
         let m = msg ~headers:[ ("Subject", subject) ] (String.concat " " words) in
         if mime then Mime.with_base64_transfer m else m)
       messages)

let bits = Int64.bits_of_float

(* A verdict-only [got] against a reference [want]: the same indicator
   bits and verdict, and no clues. *)
let check_same_result i (want : Classify.result) (got : Classify.result) =
  Alcotest.(check int64) (Printf.sprintf "message %d: indicator bits" i)
    (bits want.indicator) (bits got.indicator);
  check_bool (Printf.sprintf "message %d: verdict" i) true (want.verdict = got.verdict);
  check_int (Printf.sprintf "message %d: no clues" i) 0 (List.length got.clues)

let lookup_tests =
  [
    qtest ~count:150 "scoring by lookup = scoring the interned ids"
      QCheck2.Gen.(
        triple
          (int_range 0 (List.length lexicon_dbs - 1))
          bool
          (list_size (int_range 1 4)
             (pair bool
                (list_size (int_range 0 30) (pair bool (int_range 0 39))))))
      (fun (t, unseen_clue, messages) ->
        let tokenizer, db = List.nth lexicon_dbs t in
        let options = if unseen_clue then unseen_scores else Options.default in
        let engine = Classify.engine_cached (Prob_cache.create options (Lazy.force db)) in
        let text = lexicon_mbox messages in
        let size_before = Intern.size () in
        let got = Ingest.classify_mbox_engine engine tokenizer text in
        if not unseen_clue then
          check_int "the classify interned nothing" size_before (Intern.size ());
        (* The reference interns every token, so it runs second. *)
        let want =
          Array.map
            (fun (off, len) ->
              Option.map
                (fun (ids, _raw) -> Classify.explain engine ids (Array.length ids))
                (Ingest.unique_ids_raw tokenizer text ~off ~len))
            (Mbox.chunks text)
        in
        check_int "messages" (Array.length want) (Array.length got);
        Array.iteri
          (fun i w ->
            match (w, got.(i)) with
            | Some w, Some g -> check_same_result i w g
            | None, None -> ()
            | _ -> Alcotest.failf "message %d: parsed on one side only" i)
          want;
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Batched classify                                                    *)

(* A filter trained on 30 + 30 generated messages. *)
let trained_filter ?tokenizer seed =
  let filter = Filter.create ?tokenizer () in
  let rng = Rng.create seed in
  List.iter
    (fun (label, m) -> Filter.train filter label m)
    (List.init 30 (fun _ -> (Label.Ham, Generator.ham config rng))
    @ List.init 30 (fun _ -> (Label.Spam, Generator.spam config rng)));
  filter

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bit for bit: indicator, verdict, and each clue's token and score. *)
let check_same_classification what (want : Classify.result) (got : Classify.result) =
  if
    not
      (bits_equal want.indicator got.indicator
      && want.verdict = got.verdict
      && List.length want.clues = List.length got.clues
      && List.for_all2
           (fun (a : Classify.clue) (b : Classify.clue) ->
             a.token = b.token && bits_equal a.score b.score)
           want.clues got.clues)
  then
    Alcotest.failf "%s: indicator %h vs %h, %d vs %d clues" what want.indicator
      got.indicator (List.length want.clues) (List.length got.clues)

(* The second option set makes a never-seen token a clue: it scores
   0.3, outside a 0.05 band. *)
let unseen_clue_options =
  { Options.default with Options.unknown_word_prob = 0.3; minimum_prob_strength = 0.05 }

let classify_tests =
  [
    test_case "Filter.classify equals the string oracle" (fun () ->
        check_bool "second option set scores unseen tokens" true
          (Options.unknown_word_is_clue unseen_clue_options
          && not (Options.unknown_word_is_clue Options.default));
        List.iter
          (fun (_, tokenizer) ->
            let trained = trained_filter ~tokenizer 8 in
            List.iter
              (fun options ->
                let filter = Filter.set_options trained options in
                for n = 1_000 to 1_099 do
                  let m = gen_message n in
                  (* The filter first: the oracle interns what it scores. *)
                  let got = Filter.classify filter m in
                  check_same_classification
                    (Printf.sprintf "%s, message %d" (Tokenizer.name tokenizer) n)
                    (Oracle.Scoring.classify filter m)
                    got
                done)
              [ Options.default; unseen_clue_options ])
          Tokenizer.all);
    test_case "Filter.classify of unseen words interns nothing" (fun () ->
        let filter = trained_filter 9 in
        let words = List.init 7 (Printf.sprintf "qzv%dxk") in
        let m = msg (String.concat " " ("meeting" :: words)) in
        let before = Intern.size () in
        ignore (Filter.classify filter m);
        check_int "intern table unchanged" before (Intern.size ());
        (* Where an unseen word can be a clue, it is interned and named
           as the oracle names it. *)
        let filter = Filter.set_options filter unseen_clue_options in
        let got = Filter.classify filter m in
        check_bool "unseen words interned" true
          (List.for_all (fun w -> Intern.find w <> None) words);
        check_bool "and named as clues" true
          (List.for_all
             (fun w -> List.exists (fun (c : Classify.clue) -> c.token = w) got.clues)
             words);
        check_same_classification "unseen-word message"
          (Oracle.Scoring.classify filter m) got);
    test_case "classify_many agrees with per-message classify" (fun () ->
        let filter = trained_filter 5 in
        let test_msgs = Array.init 40 gen_message in
        (* The span ingest path's ids, interned and scored through the
           filter's cache, against the lookup-only [Filter.classify];
           its clues against the same ids explained off the db. *)
        let ids = Array.map (fun m -> fst (unique_ids (Filter.tokenizer filter) m)) test_msgs in
        let batched = Array.map (Filter.classify_ids filter) ids in
        let engine = Classify.engine (Filter.options filter) (Filter.db filter) in
        Array.iteri
          (fun i m ->
            let single = Filter.classify filter m in
            let b = batched.(i) in
            Alcotest.(check (float 1e-12))
              "indicator" single.Classify.indicator b.Classify.indicator;
            check_bool "verdict" true
              (single.Classify.verdict = b.Classify.verdict);
            check_bool "verdict only" true (b.Classify.clues = []);
            check_bool "clues" true
              (single.Classify.clues
              = (Classify.explain engine ids.(i) (Array.length ids.(i))).Classify.clues))
          test_msgs);
    test_case "explain = verdict-only scoring, cached and uncached" (fun () ->
        (* Every tokenizer and both option sets: explaining through the
           filter's cache equals explaining off its db bit for bit,
           clues included, and verdict-only scoring through either
           engine has the same indicator bits and verdict, and no
           clues. *)
        List.iter
          (fun (_, tokenizer) ->
            let trained = trained_filter ~tokenizer 11 in
            List.iter
              (fun options ->
                let filter = Filter.set_options trained options in
                let cached = Filter.engine filter
                and uncached = Classify.engine options (Filter.db filter) in
                for n = 2_000 to 2_059 do
                  let ids, _ = unique_ids tokenizer (gen_message n) in
                  let k = Array.length ids in
                  let named = Classify.explain cached ids k in
                  check_same_classification
                    (Printf.sprintf "%s, message %d" (Tokenizer.name tokenizer) n)
                    (Classify.explain uncached ids k) named;
                  check_same_result n named (Classify.score_engine cached ids);
                  check_same_result n named (Classify.score_engine uncached ids)
                done)
              [ Options.default; unseen_clue_options ])
          Tokenizer.all);
    test_case "classify_mbox classifies every chunk" (fun () ->
        let filter = trained_filter 6 in
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
      ("decoder", decoder_tests);
      ("allocation", alloc_tests @ mime_alloc_tests);
      ("classify", classify_tests);
      ("lookup", lookup_tests);
    ]

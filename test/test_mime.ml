(* Tests for the MIME layer (encodings, content types, multipart) and
   HTML deconstruction, plus their integration with tokenization. *)

open Spamlab_email
module Oracle = Spamlab_oracle
module Html = Spamlab_oracle.Html
module Tokenizer = Spamlab_tokenizer.Tokenizer

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Base64                                                              *)

let base64_tests =
  [
    test_case "RFC 4648 vectors" (fun () ->
        List.iter
          (fun (plain, encoded) ->
            check_str plain encoded (Encoding.base64_encode plain);
            match Oracle.Encoding.base64_decode encoded with
            | Ok decoded -> check_str encoded plain decoded
            | Error e -> Alcotest.fail e)
          [
            ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
            ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE=");
            ("foobar", "Zm9vYmFy");
          ]);
    test_case "long input wraps at 76 columns" (fun () ->
        let encoded = Encoding.base64_encode (String.make 200 'x') in
        List.iter
          (fun line -> check_bool "width" true (String.length line <= 76))
          (String.split_on_char '\n' encoded));
    test_case "decode ignores whitespace and padding" (fun () ->
        match Oracle.Encoding.base64_decode "Zm9v\n  YmFy " with
        | Ok s -> check_str "foobar" "foobar" s
        | Error e -> Alcotest.fail e);
    test_case "decode accepts unpadded input" (fun () ->
        match Oracle.Encoding.base64_decode "Zm9vYg" with
        | Ok s -> check_str "foob" "foob" s
        | Error e -> Alcotest.fail e);
    test_case "decode rejects invalid characters" (fun () ->
        check_bool "error" true
          (Result.is_error (Oracle.Encoding.base64_decode "Zm9v*mFy")));
    qtest "round-trips arbitrary bytes"
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s ->
        match Oracle.Encoding.base64_decode (Encoding.base64_encode s) with
        | Ok s' -> s' = s
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Quoted-printable                                                    *)

let qp_tests =
  [
    test_case "plain ASCII passes through" (fun () ->
        check_str "plain" "hello world"
          (Encoding.quoted_printable_encode "hello world"));
    test_case "escapes = and 8-bit bytes" (fun () ->
        let encoded = Encoding.quoted_printable_encode "a=b\xE9c" in
        check_str "escaped" "a=3Db=E9c" encoded);
    test_case "escapes trailing whitespace" (fun () ->
        let encoded = Encoding.quoted_printable_encode "line \nnext" in
        check_bool "trailing space escaped" true
          (String.length encoded >= 8 && String.sub encoded 4 3 = "=20"));
    test_case "decode removes soft breaks" (fun () ->
        match Oracle.Encoding.quoted_printable_decode "long=\nword" with
        | Ok s -> check_str "joined" "longword" s
        | Error e -> Alcotest.fail e);
    test_case "decode is liberal about stray =" (fun () ->
        match Oracle.Encoding.quoted_printable_decode "a=zb" with
        | Ok s -> check_str "literal" "a=zb" s
        | Error e -> Alcotest.fail e);
    qtest "round-trips arbitrary bytes"
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun s ->
        match
          Oracle.Encoding.quoted_printable_decode (Encoding.quoted_printable_encode s)
        with
        | Ok s' -> s' = s
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Content types and decoding                                          *)

let content_type_tests =
  [
    test_case "parses type, subtype and parameters" (fun () ->
        match
          Mime.content_type_of_string
            "Text/HTML; charset=\"utf-8\"; boundary=abc"
        with
        | Ok ct ->
            check_str "type" "text" ct.Mime.media_type;
            check_str "subtype" "html" ct.Mime.subtype;
            check_bool "charset" true
              (Mime.parameter ct "charset" = Some "utf-8");
            check_bool "boundary" true
              (Mime.parameter ct "BOUNDARY" = Some "abc")
        | Error e -> Alcotest.fail e);
    test_case "rejects malformed types" (fun () ->
        check_bool "no slash" true
          (Result.is_error (Mime.content_type_of_string "texthtml"));
        check_bool "empty subtype" true
          (Result.is_error (Mime.content_type_of_string "text/")));
    test_case "message default is text/plain" (fun () ->
        let ct = Oracle.Mime.content_type (Message.make "body") in
        check_str "type" "text" ct.Mime.media_type;
        check_str "subtype" "plain" ct.Mime.subtype);
    test_case "malformed header degrades to text/plain" (fun () ->
        let msg =
          Message.make
            ~headers:(Header.of_list [ ("Content-Type", "garbage") ])
            "body"
        in
        check_str "subtype" "plain" (Oracle.Mime.content_type msg).Mime.subtype);
    test_case "to_string round-trips" (fun () ->
        match Mime.content_type_of_string "text/html; charset=us-ascii" with
        | Ok ct -> (
            match Mime.content_type_of_string (Oracle.Mime.content_type_to_string ct) with
            | Ok ct' -> check_bool "equal" true (ct = ct')
            | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail e);
    test_case "decoded_body reverses base64" (fun () ->
        let msg = Mime.with_base64_transfer (Message.make "secret payload") in
        check_bool "body is encoded" true
          (Message.body msg <> "secret payload");
        check_str "decodes" "secret payload" (Oracle.Mime.decoded_body msg));
    test_case "decoded_body reverses quoted-printable" (fun () ->
        let msg =
          Mime.with_quoted_printable_transfer (Message.make "caf=e9 style")
        in
        check_str "decodes" "caf=e9 style" (Oracle.Mime.decoded_body msg));
    test_case "unknown transfer encoding passes through" (fun () ->
        let msg =
          Message.make
            ~headers:(Header.of_list [ ("Content-Transfer-Encoding", "x-zip") ])
            "raw"
        in
        check_str "raw" "raw" (Oracle.Mime.decoded_body msg));
  ]

(* ------------------------------------------------------------------ *)
(* Multipart                                                           *)

let multipart_tests =
  [
    test_case "make_multipart then parts round-trips" (fun () ->
        let part1 = Message.make "first part body" in
        let part2 =
          Message.make
            ~headers:(Header.of_list [ ("Content-Type", "text/html") ])
            "<p>second</p>"
        in
        let msg = Oracle.Mime.make_multipart ~boundary:"XYZ" [ part1; part2 ] in
        match Oracle.Mime.parts msg with
        | Some [ p1; p2 ] ->
            check_str "part1" "first part body" (Message.body p1);
            check_str "part2" "<p>second</p>" (Message.body p2);
            check_str "part2 type" "html" (Oracle.Mime.content_type p2).Mime.subtype
        | Some _ -> Alcotest.fail "wrong part count"
        | None -> Alcotest.fail "no parts");
    test_case "parts of a non-multipart is None" (fun () ->
        check_bool "none" true (Oracle.Mime.parts (Message.make "plain") = None));
    test_case "multipart without boundary is None" (fun () ->
        let msg =
          Message.make
            ~headers:(Header.of_list [ ("Content-Type", "multipart/mixed") ])
            "body"
        in
        check_bool "none" true (Oracle.Mime.parts msg = None));
    test_case "make_multipart validates the boundary" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Mime.make_multipart: empty boundary") (fun () ->
            ignore (Oracle.Mime.make_multipart ~boundary:"" []));
        Alcotest.check_raises "collision"
          (Invalid_argument "Mime.make_multipart: boundary occurs in a part")
          (fun () ->
            ignore
              (Oracle.Mime.make_multipart ~boundary:"BB"
                 [ Message.make "text --BB text" ])));
    test_case "text_content traverses nested multiparts" (fun () ->
        let inner =
          Oracle.Mime.make_multipart ~boundary:"IN"
            [ Message.make "deep plain"; Mime.make_html "<b>deep html</b>" ]
        in
        let outer = Oracle.Mime.make_multipart ~boundary:"OUT" [ inner; Message.make "top" ] in
        let chunks = Oracle.Mime.text_content outer in
        check_int "three chunks" 3 (List.length chunks);
        check_bool "kinds" true
          (List.map fst chunks = [ Mime.Plain; Mime.Html; Mime.Plain ]));
    test_case "text_content of base64 html decodes" (fun () ->
        let msg = Mime.with_base64_transfer (Mime.make_html "<i>hidden words</i>") in
        match Oracle.Mime.text_content msg with
        | [ (Mime.Html, body) ] ->
            check_str "decoded" "<i>hidden words</i>" body
        | _ -> Alcotest.fail "unexpected structure");
    test_case "text_content never loses a plain body" (fun () ->
        match Oracle.Mime.text_content (Message.make "just text") with
        | [ (Mime.Plain, body) ] -> check_str "body" "just text" body
        | _ -> Alcotest.fail "unexpected structure");
  ]

(* The lib decoder's leaves of a message, copied out. *)
let leaves headers body =
  let acc = ref [] in
  Mime.iter_leaves
    (Mime.text_leaves (Header.of_list headers) body 0 (String.length body))
    (fun kind buf off len -> acc := (kind, String.sub buf off len) :: !acc);
  List.rev !acc

(* The lib HTML scanner's output in the oracle's shape (URLs
   lowercased, as the oracle reports them). *)
let scan s =
  let meta = ref [] and urls = ref [] and text = ref "" in
  Spamlab_tokenizer.Html.iter s 0 (String.length s)
    ~meta:(fun m -> meta := m :: !meta)
    ~url:(fun b o l -> urls := String.lowercase_ascii (String.sub b o l) :: !urls)
    ~text:(fun b o l -> text := String.sub b o l);
  { Html.visible_text = !text; meta_tokens = List.rev !meta; urls = List.rev !urls }

(* ------------------------------------------------------------------ *)
(* HTML                                                                *)

let html_tests =
  [
    test_case "strip_tags keeps the prose" (fun () ->
        let text = Html.strip_tags "<p>hello <b>bold</b> world</p>" in
        let words = Spamlab_tokenizer.Text.words text in
        check_bool "hello" true (List.mem "hello" words);
        check_bool "bold" true (List.mem "bold" words);
        check_bool "world" true (List.mem "world" words);
        check_bool "no tags" false (List.mem "p" words));
    test_case "deconstruct reports tracked tags" (fun () ->
        let h =
          Html.deconstruct
            "<table><a href=\"http://x.biz/go\">click</a><img src=\"http://y.biz/p.gif\"></table>"
        in
        check_bool "table" true (List.mem "html:table" h.Html.meta_tokens);
        check_bool "a" true (List.mem "html:a" h.Html.meta_tokens);
        check_bool "img" true (List.mem "html:img" h.Html.meta_tokens);
        check_int "urls" 2 (List.length h.Html.urls);
        check_bool "href" true (List.mem "http://x.biz/go" h.Html.urls));
    test_case "script and style contents are dropped" (fun () ->
        let h =
          Html.deconstruct
            "before<script>var evil = 1;</script><style>p { }</style>after"
        in
        let words = Spamlab_tokenizer.Text.words h.Html.visible_text in
        check_bool "before" true (List.mem "before" words);
        check_bool "after" true (List.mem "after" words);
        check_bool "no js" false (List.mem "var" words);
        check_bool "no evil" false (List.mem "evil" words));
    test_case "comments are dropped" (fun () ->
        let words =
          Spamlab_tokenizer.Text.words
            (Html.strip_tags "a<!-- hidden words -->b")
        in
        check_bool "no hidden" false (List.mem "hidden" words));
    test_case "entities decode" (fun () ->
        check_str "amp" "a&b" (Html.decode_entities "a&amp;b");
        check_str "lt-gt" "<x>" (Html.decode_entities "&lt;x&gt;");
        check_str "nbsp" "a b" (Html.decode_entities "a&nbsp;b");
        check_str "numeric" "A" (Html.decode_entities "&#65;");
        check_str "unknown" "&zzz;" (Html.decode_entities "&zzz;");
        check_str "bare" "a&b" (Html.decode_entities "a&b"));
    test_case "tags separate words" (fun () ->
        let words =
          Spamlab_tokenizer.Text.words (Html.strip_tags "one<br>two")
        in
        check_bool "split" true
          (List.mem "one" words && List.mem "two" words));
    test_case "entity decoding is linear in the number of '&'" (fun () ->
        (* A text/html body of [n] '&', with or without a ';' after the
           last: linear decoding takes about 8x as long at 8x the
           bytes, a search for ';' from every '&' about 64x. *)
        let tokenize n semi =
          let msg = Mime.make_html (String.make n '&' ^ if semi then ";" else "") in
          fun () -> ignore (Tokenizer.tokenize Tokenizer.spambayes msg)
        in
        let time reps f =
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            f ()
          done;
          Unix.gettimeofday () -. t0
        in
        List.iter
          (fun semi ->
            let small = tokenize 2_000 semi and big = tokenize 16_000 semi in
            (* Repeat each run until the small one takes 2 ms, above
               the clock's resolution; keep the least of five. *)
            let reps = ref 1 in
            while time !reps small < 0.002 do
              reps := 2 * !reps
            done;
            let least f = List.fold_left min infinity (List.init 5 (fun _ -> time !reps f)) in
            let ratio = least big /. least small in
            if ratio >= 24.0 then
              Alcotest.failf "16,000 '&'%s take %.1fx as long as 2,000"
                (if semi then " and a ';'" else "") ratio)
          [ false; true ]);
    qtest "lib scanner = oracle deconstruct on tag soup" ~count:500
      QCheck2.Gen.(
        map (String.concat "")
          (list_size (int_range 0 30)
             (oneofl
                [ "<a href="; "<A HREF='http://X.example/Y'>"; "<script>"; "</script";
                  "</SCRIPT >"; "<style>"; "</style>"; "<!--"; "-->"; "<img src=x.gif>";
                  "<a src=s href=h>"; "text"; "Words"; " "; "\"quoted\""; "<b>"; "&amp;";
                  "&lt;"; "&gt;"; "&#65;"; "&#300;"; "&nbsp;"; "&"; ";"; "<>"; "<"; ">"; "='x'";
                  "<font>"; "<table>"; "<iframe>"; "<form>"; "<input>"; "</a>"; "\n" ])))
      (fun s -> scan s = Html.deconstruct s);
    qtest "lib scanner = oracle deconstruct on arbitrary bytes" ~count:500
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s -> scan s = Html.deconstruct s);
  ]

(* ------------------------------------------------------------------ *)
(* Tokenizer integration                                               *)

let integration_tests =
  [
    test_case "html message tokenizes prose, meta and urls" (fun () ->
        let msg =
          Mime.make_html
            "<html><body><p>cheap offer</p><a href=\"http://pills.biz/buy\">here</a></body></html>"
        in
        let tokens = Tokenizer.tokenize Tokenizer.spambayes msg in
        check_bool "prose" true (List.mem "cheap" tokens);
        check_bool "meta" true (List.mem "html:a" tokens);
        check_bool "url host" true (List.mem "url:pills" tokens);
        check_bool "structure token" true
          (List.mem "content-type:text/html" tokens));
    test_case "base64 spam decodes before tokenization" (fun () ->
        let msg =
          Mime.with_base64_transfer
            (Message.make "hidden payload words visible after decoding")
        in
        let tokens = Tokenizer.tokenize Tokenizer.spambayes msg in
        check_bool "payload" true (List.mem "payload" tokens);
        check_bool "encoding tell" true
          (List.mem "content-transfer-encoding:base64" tokens));
    test_case "quoted-printable decodes before tokenization" (fun () ->
        let msg =
          Mime.with_quoted_printable_transfer
            (Message.make "acqu\xE9rir cheap pills now")
        in
        let tokens = Tokenizer.tokenize Tokenizer.spambayes msg in
        check_bool "words" true (List.mem "cheap" tokens));
    test_case "multipart alternative tokenizes all parts" (fun () ->
        let msg =
          Oracle.Mime.make_multipart ~boundary:"B42"
            [ Message.make "plain version words";
              Mime.make_html "<p>html version words</p>" ]
        in
        let tokens = Tokenizer.tokenize Tokenizer.spambayes msg in
        check_bool "plain" true (List.mem "plain" tokens);
        check_bool "html" true (List.mem "version" tokens));
    test_case "plain messages tokenize exactly as before" (fun () ->
        let msg = Message.make "alpha beta gamma" in
        Alcotest.(check (list string))
          "tokens" [ "alpha"; "beta"; "gamma" ]
          (Tokenizer.tokenize Tokenizer.spambayes msg));
  ]

(* ------------------------------------------------------------------ *)
(* Robustness: arbitrary bytes must never raise                        *)

let no_exn f = try ignore (f ()); true with _ -> false

let fuzz_tests =
  [
    qtest "base64_decode total on arbitrary bytes" ~count:500
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun s ->
        no_exn (fun () -> leaves [ ("Content-Transfer-Encoding", "base64") ] s));
    qtest "quoted_printable_decode total on arbitrary bytes" ~count:500
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun s ->
        no_exn (fun () ->
            leaves [ ("Content-Transfer-Encoding", "quoted-printable") ] s));
    qtest "content_type_of_string total" ~count:500
      QCheck2.Gen.(string_size (int_range 0 80))
      (fun s -> no_exn (fun () -> Mime.content_type_of_string s));
    qtest "html deconstruct total on arbitrary bytes" ~count:500
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s -> no_exn (fun () -> scan s));
    qtest "html deconstruct total on tag soup" ~count:300
      QCheck2.Gen.(
        list_size (int_range 0 30)
          (oneofl
             [ "<a href="; "<script>"; "</script"; "<!--"; "-->"; "<img ";
               "text"; "\"quoted\""; "<b>"; "&amp;"; "&#300;"; "<>"; "<";
               ">"; "='x'" ]))
      (fun pieces -> no_exn (fun () -> scan (String.concat "" pieces)));
    qtest "text_content total on arbitrary messages" ~count:300
      QCheck2.Gen.(
        pair
          (small_list
             (pair
                (oneofl
                   [ "Content-Type"; "Content-Transfer-Encoding"; "Subject" ])
                (string_size (int_range 0 40))))
          (string_size (int_range 0 300)))
      (fun (headers, body) ->
        let headers =
          List.filter
            (fun (_, v) -> not (String.contains v '\n'))
            headers
        in
        no_exn (fun () -> leaves headers body));
    qtest "spambayes tokenizer total on arbitrary messages" ~count:300
      QCheck2.Gen.(string_size (int_range 0 400))
      (fun body ->
        no_exn (fun () ->
            Tokenizer.tokenize Tokenizer.spambayes
              (Spamlab_email.Message.make body)));
    qtest "rfc2822 parse total on arbitrary bytes" ~count:500
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s -> no_exn (fun () -> Rfc2822.parse s));
    qtest "mbox parse total on arbitrary bytes" ~count:300
      QCheck2.Gen.(string_size (int_range 0 400))
      (fun s -> no_exn (fun () -> Mbox.parse s));
  ]

let () =
  Alcotest.run "mime"
    [
      ("base64", base64_tests);
      ("quoted_printable", qp_tests);
      ("content_type", content_type_tests);
      ("multipart", multipart_tests);
      ("html", html_tests);
      ("tokenizer_integration", integration_tests);
      ("fuzz", fuzz_tests);
    ]

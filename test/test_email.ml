(* Unit and property tests for the email substrate. *)

open Spamlab_email

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt_str = Alcotest.(check (option string))
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Header                                                              *)

let header_tests =
  [
    test_case "find is case-insensitive" (fun () ->
        let h = Header.of_list [ ("Subject", "hello") ] in
        check_opt_str "lower" (Some "hello") (Header.find h "subject");
        check_opt_str "upper" (Some "hello") (Header.find h "SUBJECT");
        check_opt_str "missing" None (Header.find h "from"));
    test_case "find returns first of repeated fields" (fun () ->
        let h = Header.of_list [ ("Received", "a"); ("Received", "b") ] in
        check_opt_str "first" (Some "a") (Header.find h "received");
        Alcotest.(check (list string))
          "all" [ "a"; "b" ]
          (Header.find_all h "received"));
    test_case "add preserves order" (fun () ->
        let h = Header.add (Header.add Header.empty "A" "1") "B" "2" in
        Alcotest.(check (list (pair string string)))
          "order"
          [ ("A", "1"); ("B", "2") ]
          (Header.to_list h));
    test_case "remove deletes all occurrences" (fun () ->
        let h = Header.of_list [ ("X", "1"); ("Y", "2"); ("x", "3") ] in
        let h = Header.remove h "x" in
        check_int "length" 1 (Header.length h);
        check_bool "y remains" true (Header.mem h "y"));
    test_case "replace keeps a single field" (fun () ->
        let h = Header.of_list [ ("X", "1"); ("X", "2") ] in
        let h = Header.replace h "X" "3" in
        Alcotest.(check (list string)) "one" [ "3" ] (Header.find_all h "x"));
    test_case "canonical_name" (fun () ->
        check_str "message-id" "Message-Id" (Header.canonical_name "message-id");
        check_str "SUBJECT" "Subject" (Header.canonical_name "SUBJECT");
        check_str "x-mailer" "X-Mailer" (Header.canonical_name "X-MAILER"));
    test_case "equal ignores name case" (fun () ->
        check_bool "equal" true
          (Header.equal
             (Header.of_list [ ("subject", "x") ])
             (Header.of_list [ ("Subject", "x") ]));
        check_bool "value case matters" false
          (Header.equal
             (Header.of_list [ ("subject", "x") ])
             (Header.of_list [ ("subject", "X") ])));
    test_case "fold accumulates in order" (fun () ->
        let h = Header.of_list [ ("A", "1"); ("B", "2") ] in
        check_str "concat" "A=1;B=2;"
          (Header.fold (fun acc n v -> acc ^ n ^ "=" ^ v ^ ";") "" h));
    test_case "is_empty" (fun () ->
        check_bool "empty" true (Header.is_empty Header.empty);
        check_bool "non-empty" false
          (Header.is_empty (Header.of_list [ ("a", "b") ])));
  ]

(* ------------------------------------------------------------------ *)
(* Address                                                             *)

let address_tests =
  [
    test_case "parse bare spec" (fun () ->
        match Address.of_string "alice@example.com" with
        | Ok a ->
            check_str "local" "alice" a.Address.local;
            check_str "domain" "example.com" a.Address.domain;
            check_bool "no name" true (a.Address.display_name = None)
        | Error e -> Alcotest.fail e);
    test_case "parse with display name" (fun () ->
        match Address.of_string "Alice Smith <alice@example.com>" with
        | Ok a ->
            check_opt_str "name" (Some "Alice Smith") a.Address.display_name;
            check_str "spec" "alice@example.com" (Address.address_spec a)
        | Error e -> Alcotest.fail e);
    test_case "parse angle without name" (fun () ->
        match Address.of_string "<bob@host.net>" with
        | Ok a -> check_str "local" "bob" a.Address.local
        | Error e -> Alcotest.fail e);
    test_case "reject malformed" (fun () ->
        List.iter
          (fun s -> check_bool s true (Result.is_error (Address.of_string s)))
          [ "no-at-sign"; "a@"; "@b"; "a@b@c <"; "Alice <alice>"; "" ]);
    test_case "round trip" (fun () ->
        List.iter
          (fun s ->
            match Address.of_string s with
            | Ok a -> check_str s s (Address.to_string a)
            | Error e -> Alcotest.fail e)
          [ "x@y.z"; "Bob <b@c.d>" ]);
    test_case "make validates" (fun () ->
        Alcotest.check_raises "space in local"
          (Invalid_argument "Address.make: bad local part") (fun () ->
            ignore (Address.make ~local:"a b" ~domain:"c" ())));
    test_case "equal: domain case-insensitive, local sensitive" (fun () ->
        let a = Address.make ~local:"x" ~domain:"EXAMPLE.com" () in
        let b = Address.make ~local:"x" ~domain:"example.COM" () in
        let c = Address.make ~local:"X" ~domain:"example.com" () in
        check_bool "domains fold" true (Address.equal a b);
        check_bool "locals don't" false (Address.equal a c));
  ]

(* ------------------------------------------------------------------ *)
(* Message                                                             *)

let message_tests =
  [
    test_case "accessors" (fun () ->
        let msg =
          Message.make
            ~headers:
              (Header.of_list
                 [ ("Subject", "greetings"); ("From", "Bob <b@c.d>") ])
            "body text"
        in
        check_opt_str "subject" (Some "greetings") (Message.subject msg);
        (match Message.from_address msg with
        | Some a -> check_str "from" "b@c.d" (Address.address_spec a)
        | None -> Alcotest.fail "expected from");
        check_bool "no to" true (Message.to_address msg = None);
        check_str "body" "body text" (Message.body msg));
    test_case "with_body and with_headers" (fun () ->
        let msg = Message.make "a" in
        let msg' = Message.with_body msg "bb" in
        check_str "new body" "bb" (Message.body msg');
        check_str "old intact" "a" (Message.body msg));
    test_case "size_bytes counts headers and body" (fun () ->
        let msg = Message.make ~headers:(Header.of_list [ ("A", "b") ]) "xyz" in
        check_int "size" (1 + 2 + 1 + 2 + 2 + 3) (Message.size_bytes msg));
  ]

(* ------------------------------------------------------------------ *)
(* Rfc2822                                                             *)

let rfc2822_tests =
  [
    test_case "print then parse round-trips" (fun () ->
        let msg =
          Message.make
            ~headers:
              (Header.of_list [ ("From", "a@b.c"); ("Subject", "hi there") ])
            "line one\nline two\n"
        in
        match Rfc2822.parse (Rfc2822.print msg) with
        | Ok msg' -> check_bool "equal" true (Message.equal msg msg')
        | Error e -> Alcotest.fail e);
    test_case "parses folded headers" (fun () ->
        let wire = "Subject: a long\n\tfolded value\n\nbody" in
        (match Rfc2822.parse wire with
        | Ok msg ->
            check_opt_str "unfolded" (Some "a long folded value")
              (Message.subject msg);
            check_str "body" "body" (Message.body msg)
        | Error e -> Alcotest.fail e);
        (* A blank continuation line still contributes its separator. *)
        match Rfc2822.parse "Subject: a\n \n\tb\n \n\nbody" with
        | Ok msg -> check_opt_str "blank pieces" (Some "a  b ") (Message.subject msg)
        | Error e -> Alcotest.fail e);
    test_case "parses CRLF line endings" (fun () ->
        let wire = "Subject: x\r\n\r\nbody\r\n" in
        match Rfc2822.parse wire with
        | Ok msg ->
            check_opt_str "subject" (Some "x") (Message.subject msg);
            check_str "body" "body\n" (Message.body msg)
        | Error e -> Alcotest.fail e);
    test_case "empty body" (fun () ->
        match Rfc2822.parse "A: b\n\n" with
        | Ok msg -> check_str "body" "" (Message.body msg)
        | Error e -> Alcotest.fail e);
    test_case "no headers at all" (fun () ->
        match Rfc2822.parse "\njust a body" with
        | Ok msg ->
            check_int "no headers" 0 (Header.length (Message.headers msg));
            check_str "body" "just a body" (Message.body msg)
        | Error e -> Alcotest.fail e);
    test_case "rejects header line without colon" (fun () ->
        check_bool "error" true
          (Result.is_error (Rfc2822.parse "not a header\n\nbody")));
    test_case "rejects leading continuation" (fun () ->
        check_bool "error" true
          (Result.is_error (Rfc2822.parse " continuation\n\nbody")));
    test_case "parse_exn raises on bad input" (fun () ->
        check_bool "raises" true
          (try
             ignore (Rfc2822.parse_exn "bad line\n\n");
             false
           with Failure _ -> true));
    test_case "embedded newline in value is folded on print" (fun () ->
        let msg = Message.make ~headers:(Header.of_list [ ("X", "one\ntwo") ]) "" in
        let wire = Rfc2822.print msg in
        check_bool "folded" true (Option.is_some (String.index_opt wire '\t')));
    qtest "round-trip arbitrary safe messages"
      QCheck2.Gen.(
        pair
          (small_list
             (pair
                (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
                (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))))
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 100)))
      (fun (headers, body) ->
        let msg = Message.make ~headers:(Header.of_list headers) body in
        match Rfc2822.parse (Rfc2822.print msg) with
        | Ok msg' -> Message.equal msg msg'
        | Error _ -> false);
    qtest ~count:1000 "parse = the line-splitting oracle on header-block soup"
      QCheck2.Gen.(
        map (String.concat "")
          (list_size (int_range 0 14)
             (oneofl
                [ "Subject: hello"; "From: a@b"; "X-Thing:  padded value  "; ":"; "A:";
                  "a b: c"; "\tfolded more"; " folded"; "no colon line"; "\n"; "\r\n";
                  "\r"; "\n\n"; "body words"; "\xe9"; "\r\r\n"; "Name\t: v" ])))
      (fun text ->
        match (Rfc2822.parse text, Spamlab_oracle.Rfc2822.parse text) with
        | Ok m, Ok m' -> Message.equal m m'
        | Error _, Error _ -> true
        | _ -> false);
    test_case "unfolding is linear in continuation lines" (fun () ->
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
            ignore (Rfc2822.parse text);
            Gc.allocated_bytes () -. before
          in
          List.fold_left min infinity (List.init 5 (fun _ -> run ()))
        in
        let ratio = allocated (folded 8_000) /. allocated (folded 2_000) in
        if ratio >= 6.0 then
          Alcotest.failf "8,000 continuation lines allocate %.1fx what 2,000 do" ratio);
  ]

(* ------------------------------------------------------------------ *)
(* Mbox                                                                *)

let sample_messages =
  [
    Message.make ~headers:(Header.of_list [ ("Subject", "one") ]) "first body";
    Message.make
      ~headers:(Header.of_list [ ("Subject", "two"); ("From", "x@y.z") ])
      "second body\nwith two lines";
    Message.make "headerless body";
  ]

let mbox_tests =
  [
    test_case "round-trips a mailbox" (fun () ->
        match Mbox.parse (Mbox.print sample_messages) with
        | Ok msgs ->
            check_int "count" 3 (List.length msgs);
            List.iter2
              (fun a b -> check_bool "equal" true (Message.equal a b))
              sample_messages msgs
        | Error e -> Alcotest.fail e);
    test_case "quotes From lines in bodies" (fun () ->
        let tricky = Message.make "From here on\n>From quoted\nnormal line" in
        match Mbox.parse (Mbox.print [ tricky ]) with
        | Ok [ msg ] ->
            check_str "body preserved" "From here on\n>From quoted\nnormal line"
              (Message.body msg)
        | Ok _ -> Alcotest.fail "wrong count"
        | Error e -> Alcotest.fail e);
    test_case "empty mailbox" (fun () ->
        (match Mbox.parse "" with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "expected empty"
        | Error e -> Alcotest.fail e);
        check_str "print empty" "" (Mbox.print []));
    test_case "file round-trip" (fun () ->
        let path = Filename.temp_file "spamlab" ".mbox" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Mbox.write_file path sample_messages;
            match Mbox.read_file path with
            | Ok msgs -> check_int "count" 3 (List.length msgs)
            | Error e -> Alcotest.fail e));
    test_case "garbage is an error" (fun () ->
        check_bool "error" true
          (Result.is_error (Mbox.parse "no separator here"));
        check_bool "separators only" true
          (Mbox.parse "From a@b\nFrom c@d\n"
          = Error "mbox: no message separator found"));
    test_case "a body keeps its last newline at every position" (fun () ->
        (* 8-bit bytes make the body's length show in the spambayes
           tokenizer's 8bit% token. *)
        let m =
          Message.make
            ~headers:(Header.of_list [ ("Subject", "accents") ])
            "\xc3\xa9t\xc3\xa9 words\n"
        in
        let text = Mbox.print [ m; m ] in
        let check_copies what msgs =
          check_int (what ^ " count") 2 (List.length msgs);
          List.iter (fun m' -> check_bool (what ^ " equal") true (Message.equal m m')) msgs
        in
        (match Mbox.parse text with
        | Ok msgs -> check_copies "parse" msgs
        | Error e -> Alcotest.fail e);
        check_copies "parse_lenient" (fst (Mbox.parse_lenient text)));
  ]

let () =
  Alcotest.run "email"
    [
      ("header", header_tests);
      ("address", address_tests);
      ("message", message_tests);
      ("rfc2822", rfc2822_tests);
      ("mbox", mbox_tests);
    ]

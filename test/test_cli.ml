(* End-to-end tests of the spamlab command-line tool: each test drives
   the real binary through a temp directory, the way a user would. *)

(* The binary sits next to this test in the build tree; resolving it
   from the executable's own path keeps the tests independent of the
   working directory dune runs them from. *)
let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "spamlab.exe"))

let tmp_dir =
  let dir = Filename.temp_file "spamlab-cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let in_tmp name = Filename.concat tmp_dir name

let run_command args =
  let command =
    Filename.quote_command binary args
    ^ " > " ^ Filename.quote (in_tmp "stdout")
    ^ " 2> " ^ Filename.quote (in_tmp "stderr")
  in
  Sys.command command

let read_output () = In_channel.with_open_text (in_tmp "stdout") In_channel.input_all

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i =
    i + m <= n && (String.sub haystack i m = needle || scan (i + 1))
  in
  scan 0

let ham_mbox = in_tmp "ham.mbox"
let spam_mbox = in_tmp "spam.mbox"
let db_file = in_tmp "filter.db"

(* Extract the first message of an mbox into a standalone .eml file. *)
let extract_first mbox target =
  match Spamlab_email.Mbox.read_file mbox with
  | Ok (msg :: _) ->
      Out_channel.with_open_text target (fun oc ->
          Out_channel.output_string oc (Spamlab_email.Rfc2822.print msg))
  | Ok [] -> Alcotest.fail "empty mbox"
  | Error e -> Alcotest.fail e

let cli_tests =
  [
    test_case "corpus generates both mboxes" (fun () ->
        check_int "exit" 0
          (run_command
             [ "corpus"; "--size"; "400"; "--seed"; "11"; "--ham"; ham_mbox;
               "--spam"; spam_mbox ]);
        check_bool "ham exists" true (Sys.file_exists ham_mbox);
        check_bool "spam exists" true (Sys.file_exists spam_mbox);
        match Spamlab_email.Mbox.read_file ham_mbox with
        | Ok msgs -> check_int "ham count" 200 (List.length msgs)
        | Error e -> Alcotest.fail e);
    test_case "corpus rejects a bad spam fraction" (fun () ->
        check_bool "nonzero exit" true
          (run_command
             [ "corpus"; "--spam-fraction"; "1.5"; "--ham"; ham_mbox;
               "--spam"; spam_mbox ]
          <> 0));
    test_case "train produces a loadable database" (fun () ->
        check_int "exit" 0
          (run_command
             [ "train"; "--ham"; ham_mbox; "--spam"; spam_mbox; "--db"; db_file ]);
        check_bool "db exists" true (Sys.file_exists db_file);
        match Spamlab_spambayes.Filter.load_file db_file with
        | Ok filter ->
            check_int "trained messages" 400
              (Spamlab_spambayes.Token_db.nham
                 (Spamlab_spambayes.Filter.db filter)
              + Spamlab_spambayes.Token_db.nspam
                  (Spamlab_spambayes.Filter.db filter))
        | Error e -> Alcotest.fail e);
    test_case "classify labels ham and spam correctly" (fun () ->
        extract_first ham_mbox (in_tmp "one_ham.eml");
        extract_first spam_mbox (in_tmp "one_spam.eml");
        check_int "exit" 0
          (run_command [ "classify"; "--db"; db_file; in_tmp "one_ham.eml" ]);
        check_bool "ham verdict" true
          (String.length (read_output ()) >= 3
          && String.sub (read_output ()) 0 3 = "ham");
        check_int "exit" 0
          (run_command [ "classify"; "--db"; db_file; in_tmp "one_spam.eml" ]);
        check_bool "spam verdict" true
          (String.length (read_output ()) >= 4
          && String.sub (read_output ()) 0 4 = "spam"));
    test_case "tokenize prints distinct tokens" (fun () ->
        check_int "exit" 0
          (run_command [ "tokenize"; in_tmp "one_spam.eml" ]);
        let lines =
          String.split_on_char '\n' (read_output ())
          |> List.filter (fun l -> l <> "")
        in
        check_bool "many tokens" true (List.length lines > 10);
        check_bool "sorted" true
          (List.sort compare lines = lines));
    test_case "attack dictionary emits the requested emails" (fun () ->
        check_int "exit" 0
          (run_command
             [ "attack"; "dictionary"; "--variant"; "usenet"; "--words";
               "5000"; "--count"; "3"; "--out"; in_tmp "attack.mbox" ]);
        match Spamlab_email.Mbox.read_file (in_tmp "attack.mbox") with
        | Ok msgs -> check_int "count" 3 (List.length msgs)
        | Error e -> Alcotest.fail e);
    test_case "roni rejects the attack email but not ordinary spam" (fun () ->
        extract_first (in_tmp "attack.mbox") (in_tmp "one_attack.eml");
        check_int "exit" 0
          (run_command
             [ "roni"; "--ham"; ham_mbox; "--spam"; spam_mbox;
               in_tmp "one_attack.eml" ]);
        check_bool "rejected" true
          (String.length (read_output ()) > 0
          && contains (read_output ()) "REJECT"));
    test_case "thresholds prints an ordered pair" (fun () ->
        check_int "exit" 0
          (run_command [ "thresholds"; "--ham"; ham_mbox; "--spam"; spam_mbox ]);
        match
          String.split_on_char '\n' (read_output ())
          |> List.filter (fun l -> l <> "")
        with
        | [ line0; line1 ] ->
            let value line =
              match String.split_on_char ' ' line with
              | [ _; v ] -> float_of_string v
              | _ -> Alcotest.fail ("bad line " ^ line)
            in
            check_bool "ordered" true (value line0 < value line1)
        | _ -> Alcotest.fail "expected two lines");
    test_case "evade pads a spam message toward ham" (fun () ->
        check_int "exit" 0
          (run_command
             [ "evade"; "--db"; db_file; in_tmp "one_spam.eml"; "--max-words";
               "120"; "--out"; in_tmp "padded.eml" ]);
        check_bool "padded written" true (Sys.file_exists (in_tmp "padded.eml")));
    test_case "stats characterizes a corpus" (fun () ->
        check_int "exit" 0
          (run_command [ "stats"; "--ham"; ham_mbox; "--spam"; spam_mbox ]);
        check_bool "mentions vocabulary" true
          (String.length (read_output ()) > 200));
    test_case "attack pseudospam emits ham-labeled attack emails" (fun () ->
        check_int "exit" 0
          (run_command
             [ "attack"; "pseudospam"; "--campaign"; in_tmp "one_spam.eml";
               "--count"; "2"; "--out"; in_tmp "pseudo.mbox" ]);
        match Spamlab_email.Mbox.read_file (in_tmp "pseudo.mbox") with
        | Ok msgs -> check_int "count" 2 (List.length msgs)
        | Error e -> Alcotest.fail e);
    test_case "experiment table1 runs" (fun () ->
        check_int "exit" 0
          (run_command [ "experiment"; "table1"; "--scale"; "0.05" ]);
        check_bool "output" true (String.length (read_output ()) > 100));
    test_case "unknown experiment fails cleanly" (fun () ->
        check_bool "nonzero" true
          (run_command [ "experiment"; "fig99" ] <> 0));
    test_case "experiment rejects --jobs 0 with the shared message" (fun () ->
        check_bool "nonzero" true
          (run_command [ "experiment"; "table1"; "--jobs"; "0" ] <> 0);
        let err =
          In_channel.with_open_text (in_tmp "stderr") In_channel.input_all
        in
        (* cmdliner may line-wrap the message, so match its head only. *)
        check_bool "shared jobs message" true
          (contains err "--jobs/SPAMLAB_JOBS must be a positive integer"));
    test_case "--trace writes JSONL without changing stdout" (fun () ->
        let trace = in_tmp "table1.jsonl" in
        check_int "exit" 0
          (run_command [ "experiment"; "table1"; "--scale"; "0.05" ]);
        let untraced = read_output () in
        check_int "exit traced" 0
          (run_command
             [ "experiment"; "table1"; "--scale"; "0.05"; "--trace"; trace ]);
        check_bool "stdout byte-identical with tracing on" true
          (read_output () = untraced);
        let lines =
          In_channel.with_open_text trace In_channel.input_lines
          |> List.filter (fun l -> l <> "")
        in
        (match lines with
        | first :: _ ->
            check_bool "meta header first" true
              (contains first "\"ev\":\"meta\""
              && contains first "spamlab-trace")
        | [] -> Alcotest.fail "empty trace");
        let count needle =
          List.length (List.filter (fun l -> contains l needle) lines)
        in
        check_bool "has experiment span" true
          (count "\"name\":\"exp/table1\"" > 0);
        check_int "spans balanced" (count "\"ev\":\"span_open\"")
          (count "\"ev\":\"span_close\""));
    test_case "--metrics dumps counters to stderr" (fun () ->
        (* table1 renders a static table, so use a (tiny) real
           experiment that actually classifies messages. *)
        check_int "exit" 0
          (run_command
             [ "experiment"; "fig1"; "--scale"; "0.02"; "--metrics" ]);
        let err =
          In_channel.with_open_text (in_tmp "stderr") In_channel.input_all
        in
        check_bool "metrics banner" true (contains err "== spamlab metrics ==");
        check_bool "messages counter present" true
          (contains err "eval.messages_classified"));
    test_case "tenants --metrics dumps counters, stdout unchanged" (fun () ->
        let run extra =
          check_int "exit" 0
            (run_command
               ([ "tenants"; "--scale"; "0.02"; "--users"; "50" ] @ extra));
          ( read_output (),
            In_channel.with_open_text (in_tmp "stderr") In_channel.input_all )
        in
        let plain, plain_err = run [] in
        let out, err = run [ "--metrics" ] in
        Alcotest.(check string) "stdout byte-identical" plain out;
        check_bool "no metrics without the flag" false
          (contains plain_err "== spamlab metrics ==");
        check_bool "metrics banner" true (contains err "== spamlab metrics ==");
        (* One copy-on-write overlay of the prior per tenant. *)
        check_bool "tenant overlay copies counted" true
          (contains err "spambayes.db_copies"));
    test_case "traced counter aggregates identical at --jobs 1 and 4" (fun () ->
        let trace_for jobs path =
          check_int "exit" 0
            (run_command
               [ "experiment"; "fig1"; "--scale"; "0.02"; "--jobs";
                 string_of_int jobs; "--trace"; path ]);
          let stdout = read_output () in
          let counters =
            In_channel.with_open_text path In_channel.input_lines
            |> List.filter (fun l -> contains l "\"ev\":\"counter\"")
            |> List.sort compare
          in
          (stdout, counters)
        in
        let out1, counters1 = trace_for 1 (in_tmp "fig1-j1.jsonl") in
        let out4, counters4 = trace_for 4 (in_tmp "fig1-j4.jsonl") in
        check_bool "stdout identical across jobs" true (out1 = out4);
        check_bool "some counters recorded" true (counters1 <> []);
        check_bool "counter lines identical across jobs" true
          (counters1 = counters4));
    test_case "experiment --help renders cleanly" (fun () ->
        check_int "exit" 0 (run_command [ "experiment"; "--help=plain" ]);
        let err =
          In_channel.with_open_text (in_tmp "stderr") In_channel.input_all
        in
        Alcotest.(check string) "nothing on stderr" "" err;
        check_bool "fault-spec example keeps its @" true
          (contains (read_output ()) "transient@3+97"));
  ]

(* Fault tolerance at the CLI boundary: db verify, graceful errors,
   quarantine, fault injection and checkpoint resume. *)
let robustness_tests =
  let read_stderr () =
    In_channel.with_open_text (in_tmp "stderr") In_channel.input_all
  in
  [
    test_case "db verify accepts a freshly trained database" (fun () ->
        check_int "exit" 0 (run_command [ "db"; "verify"; db_file ]);
        let out = read_output () in
        check_bool "ok" true (contains out ": ok");
        check_bool "version" true (contains out "format version: 3");
        check_bool "checksum" true (contains out "checksum:       ok"));
    test_case "db verify detects a flipped byte, with salvage stats"
      (fun () ->
        let bad = in_tmp "bad.db" in
        let contents =
          In_channel.with_open_bin db_file In_channel.input_all
        in
        let b = Bytes.of_string contents in
        let pos = Bytes.length b / 2 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
        Out_channel.with_open_bin bad (fun oc ->
            Out_channel.output_bytes oc b);
        check_bool "nonzero exit" true
          (run_command [ "db"; "verify"; bad ] <> 0);
        let err = read_stderr () in
        check_bool "names the problem" true
          (contains err "corrupt token database");
        check_bool "reports salvage" true (contains err "salvageable"));
    test_case "db verify checks the journal beside the database" (fun () ->
        let db = in_tmp "journaled.db" in
        let contents = In_channel.with_open_bin db_file In_channel.input_all in
        Out_channel.with_open_bin db (fun oc ->
            Out_channel.output_string oc contents);
        let journal header =
          Out_channel.with_open_bin (db ^ ".journal") (fun oc ->
              Out_channel.output_string oc header)
        in
        (match Spamlab_spambayes.Token_db.footer_crc contents with
        | Some crc -> journal (Printf.sprintf "spamlab-db-journal 1 db_crc=%08x\n" crc)
        | None -> Alcotest.fail "no v3 footer");
        check_int "exit" 0 (run_command [ "db"; "verify"; db ]);
        check_bool "reports the journal" true
          (contains (read_output ()) "journal:        ok (0 committed ops)");
        journal "spamlab-db-journal 1 db_crc=00000000\n";
        check_int "a stale journal is recoverable" 0
          (run_command [ "db"; "verify"; db ]);
        check_bool "reports it stale" true (contains (read_output ()) "stale");
        journal "spamlab-store-journal 1 0 1 seg_crc=00000000\n";
        check_bool "a journal naming another file fails" true
          (run_command [ "db"; "verify"; db ] <> 0);
        check_bool "names the journal" true
          (contains (read_stderr ()) "corrupt journal"));
    test_case "db verify on a missing file fails cleanly" (fun () ->
        check_bool "nonzero exit" true
          (run_command [ "db"; "verify"; in_tmp "nope.db" ] <> 0);
        check_bool "no backtrace" false
          (contains (read_stderr ()) "Fatal error"));
    test_case "classify against a missing database fails cleanly" (fun () ->
        check_bool "nonzero exit" true
          (run_command
             [ "classify"; "--db"; in_tmp "nope.db"; in_tmp "one_ham.eml" ]
          <> 0);
        let err = read_stderr () in
        check_bool "names the file" true (contains err "nope.db");
        check_bool "no backtrace" false (contains err "Fatal error"));
    test_case "train quarantines unparseable messages and proceeds"
      (fun () ->
        let bad_spam = in_tmp "bad_spam.mbox" in
        let good =
          In_channel.with_open_text spam_mbox In_channel.input_all
        in
        Out_channel.with_open_text bad_spam (fun oc ->
            Out_channel.output_string oc good;
            (* One mbox chunk that is not an RFC 2822 message. *)
            Out_channel.output_string oc
              "From intruder@example.com\nthis line is no header\n\n");
        let quarantine_db = in_tmp "quarantine.db" in
        check_int "exit" 0
          (run_command
             [ "train"; "--ham"; ham_mbox; "--spam"; bad_spam; "--db";
               quarantine_db ]);
        check_bool "warned" true
          (contains (read_stderr ()) "quarantined 1 unparseable");
        match Spamlab_spambayes.Filter.load_file quarantine_db with
        | Ok filter ->
            check_int "trained on the surviving 400" 400
              (Spamlab_spambayes.Token_db.nham
                 (Spamlab_spambayes.Filter.db filter)
              + Spamlab_spambayes.Token_db.nspam
                  (Spamlab_spambayes.Filter.db filter))
        | Error e -> Alcotest.fail e);
    test_case "train skips suppressed headers, as daemon TRAIN does"
      (fun () ->
        (* Bogofilter mines every header, so an offline db shows whether
           delivery bookkeeping (Date, Message-Id) was learned; the
           daemon's raw ingest never learns it. *)
        let message i =
          Spamlab_email.Message.make
            ~headers:
              (Spamlab_email.Header.of_list
                 [
                   ("Date", Printf.sprintf "Thu, %d Jan 1970 00:00:00 +0000" (i + 1));
                   ("Message-Id", Printf.sprintf "<msg%d@bookkeeping.example>" i);
                   ("Subject", "quarterly numbers");
                 ])
            "the numbers look good this quarter"
        in
        let mbox name =
          let path = in_tmp name in
          Spamlab_email.Mbox.write_file path (List.init 3 message);
          path
        in
        let ham = mbox "hdr_ham.mbox" and spam = mbox "hdr_spam.mbox" in
        let db = in_tmp "hdr.db" in
        check_int "exit" 0
          (run_command
             [ "train"; "--tokenizer"; "bogofilter"; "--ham"; ham; "--spam";
               spam; "--db"; db ]);
        let rows =
          String.split_on_char '\n'
            (In_channel.with_open_bin db In_channel.input_all)
        in
        let starts prefix row =
          String.length row >= String.length prefix
          && String.sub row 0 (String.length prefix) = prefix
        in
        check_bool "subject: mined" true (List.exists (starts "subject:") rows);
        check_bool "no date: rows" false (List.exists (starts "date:") rows);
        check_bool "no message-id: rows" false
          (List.exists (starts "message-id:") rows));
    test_case "experiment rejects a malformed --fault-spec" (fun () ->
        check_bool "nonzero exit" true
          (run_command
             [ "experiment"; "table1"; "--fault-spec"; "pool.task:sometimes" ]
          <> 0);
        check_bool "cites the grammar" true
          (contains (read_stderr ()) "fault spec"));
    test_case "experiment rejects --resume without --checkpoint" (fun () ->
        check_bool "nonzero exit" true
          (run_command [ "experiment"; "table1"; "--resume" ] <> 0);
        check_bool "explains" true
          (contains (read_stderr ()) "--resume requires --checkpoint"));
    test_case "transient faults leave experiment output byte-identical"
      (fun () ->
        check_int "exit" 0
          (run_command [ "experiment"; "fig1"; "--scale"; "0.02" ]);
        let clean = read_output () in
        check_int "exit with faults" 0
          (run_command
             [ "experiment"; "fig1"; "--scale"; "0.02"; "--fault-spec";
               "pool.task:transient@2+5" ]);
        check_bool "byte-identical" true (read_output () = clean));
    test_case "crash mid-sweep, then --resume, reproduces the output"
      (fun () ->
        check_int "baseline exit" 0
          (run_command [ "experiment"; "fig1"; "--scale"; "0.02" ]);
        let baseline = read_output () in
        let ckpt = in_tmp "fig1.ckpt" in
        (* The injected crash kills the process right after the second
           grid point lands in the checkpoint. *)
        check_int "killed with status 70" 70
          (run_command
             [ "experiment"; "fig1"; "--scale"; "0.02"; "--checkpoint"; ckpt;
               "--fault-spec"; "checkpoint.record:crash@2" ]);
        check_bool "injected crash announced" true
          (contains (read_stderr ()) "injected crash at checkpoint.record");
        check_bool "checkpoint survives the kill" true (Sys.file_exists ckpt);
        check_int "resumed exit" 0
          (run_command
             [ "experiment"; "fig1"; "--scale"; "0.02"; "--checkpoint"; ckpt;
               "--resume" ]);
        check_bool "byte-identical to the uninterrupted run" true
          (read_output () = baseline));
  ]

let () =
  Alcotest.run "cli"
    [ ("cli", cli_tests); ("robustness", robustness_tests) ]

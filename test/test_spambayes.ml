(* Tests for the SpamBayes learner: token database, Robinson scores,
   Fisher classification, filter assembly. *)

open Spamlab_spambayes
module Header = Spamlab_email.Header
module Message = Spamlab_email.Message

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Token counts by string, for fixtures: the oracle's lookup through
   [Intern.find], which never interns. *)
let spam_count = Spamlab_oracle.By_string.spam_count
let ham_count = Spamlab_oracle.By_string.ham_count

(* Fixture tokens, interned as the id entry points take them. *)
let ids_of = Intern.intern_array
(* Intern one whole string, through the slice entry point ingest uses. *)
let intern_id s = Intern.intern_sub s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Label                                                               *)

let label_tests =
  [
    test_case "string conversions" (fun () ->
        check_str "ham" "ham" (Label.gold_to_string Label.Ham);
        check_str "spam" "spam" (Label.gold_to_string Label.Spam);
        check_str "unsure" "unsure" (Label.verdict_to_string Label.Unsure_v);
        check_bool "parse ham" true (Label.gold_of_string "ham" = Ok Label.Ham);
        check_bool "parse bad" true
          (Result.is_error (Label.gold_of_string "nope")));
    test_case "verdict_agrees" (fun () ->
        check_bool "ham-ham" true (Label.verdict_agrees Label.Ham Label.Ham_v);
        check_bool "spam-spam" true
          (Label.verdict_agrees Label.Spam Label.Spam_v);
        check_bool "ham-unsure" false
          (Label.verdict_agrees Label.Ham Label.Unsure_v);
        check_bool "spam-ham" false
          (Label.verdict_agrees Label.Spam Label.Ham_v));
  ]

(* ------------------------------------------------------------------ *)
(* Options                                                             *)

let options_tests =
  [
    test_case "defaults match the paper" (fun () ->
        let o = Options.default in
        check_float "x" 0.5 o.Options.unknown_word_prob;
        check_float "s" 0.45 o.Options.unknown_word_strength;
        check_float "theta0" 0.15 o.Options.ham_cutoff;
        check_float "theta1" 0.9 o.Options.spam_cutoff;
        check_int "max disc" 150 o.Options.max_discriminators;
        check_float "band" 0.1 o.Options.minimum_prob_strength);
    test_case "validate accepts defaults" (fun () ->
        let d = Options.default in
        check_bool "ok" true
          (Options.with_cutoffs d ~ham:d.Options.ham_cutoff
             ~spam:d.Options.spam_cutoff
          = d));
    test_case "validate rejects each bad field" (fun () ->
        (* [with_cutoffs] validates the whole record it returns. *)
        let bad (o : Options.t) =
          match Options.with_cutoffs o ~ham:o.ham_cutoff ~spam:o.spam_cutoff with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let d = Options.default in
        check_bool "x" true (bad { d with Options.unknown_word_prob = 1.5 });
        check_bool "s" true (bad { d with Options.unknown_word_strength = 0.0 });
        check_bool "cutoffs" true
          (bad { d with Options.ham_cutoff = 0.95 });
        check_bool "disc" true (bad { d with Options.max_discriminators = 0 });
        check_bool "band" true
          (bad { d with Options.minimum_prob_strength = 0.6 }));
    test_case "with_cutoffs" (fun () ->
        let o = Options.with_cutoffs Options.default ~ham:0.2 ~spam:0.8 in
        check_float "ham" 0.2 o.Options.ham_cutoff;
        check_float "spam" 0.8 o.Options.spam_cutoff;
        Alcotest.check_raises "bad"
          (Invalid_argument
             "Options.with_cutoffs: cutoffs must satisfy 0 <= ham < spam <= 1")
          (fun () -> ignore (Options.with_cutoffs Options.default ~ham:0.9 ~spam:0.1)));
  ]

(* ------------------------------------------------------------------ *)
(* Token_db                                                            *)

let db_with training =
  let db = Token_db.create () in
  List.iter
    (fun (label, tokens) -> Token_db.train_ids db label (ids_of (Array.of_list tokens)))
    training;
  db

let db_round_trip db = Token_db.of_string (Token_db.to_string db)
let db_load_string = Token_db.of_string

let token_db_tests =
  [
    test_case "train updates counts" (fun () ->
        let db =
          db_with
            [ (Label.Spam, [ "cheap"; "pills" ]); (Label.Ham, [ "meeting"; "pills" ]) ]
        in
        check_int "nspam" 1 (Token_db.nspam db);
        check_int "nham" 1 (Token_db.nham db);
        check_int "spam(cheap)" 1 (spam_count db "cheap");
        check_int "ham(cheap)" 0 (ham_count db "cheap");
        check_int "spam(pills)" 1 (spam_count db "pills");
        check_int "ham(pills)" 1 (ham_count db "pills");
        check_int "unknown" 0 (spam_count db "nothing");
        check_int "distinct" 3 (Token_db.distinct_tokens db));
    test_case "train_many equals repeated train" (fun () ->
        let a = Token_db.create () in
        let b = Token_db.create () in
        let tokens = [| "x"; "y" |] in
        Token_db.train_many_ids a Label.Spam (ids_of tokens) 5;
        for _ = 1 to 5 do
          Token_db.train_ids b Label.Spam (ids_of tokens)
        done;
        check_int "nspam" (Token_db.nspam b) (Token_db.nspam a);
        check_int "x" (spam_count b "x") (spam_count a "x"));
    test_case "train_many zero is a no-op" (fun () ->
        let db = Token_db.create () in
        Token_db.train_many_ids db Label.Ham (ids_of [| "z" |]) 0;
        check_int "nham" 0 (Token_db.nham db);
        check_int "z" 0 (ham_count db "z"));
    test_case "train_many rejects negative" (fun () ->
        let db = Token_db.create () in
        Alcotest.check_raises "neg"
          (Invalid_argument "Token_db.train_many: negative count") (fun () ->
            Token_db.train_many_ids db Label.Ham (ids_of [| "z" |]) (-1)));
    test_case "untrain inverts train" (fun () ->
        let db = db_with [ (Label.Ham, [ "a"; "b" ]) ] in
        Token_db.train_ids db Label.Spam (ids_of [| "a"; "c" |]);
        Token_db.untrain_ids db Label.Spam (ids_of [| "a"; "c" |]);
        check_int "nspam" 0 (Token_db.nspam db);
        check_int "spam a" 0 (spam_count db "a");
        check_int "ham a" 1 (ham_count db "a");
        check_int "c gone" 0 (spam_count db "c");
        check_int "distinct" 2 (Token_db.distinct_tokens db));
    test_case "untrain of untrained message fails atomically" (fun () ->
        let db = db_with [ (Label.Spam, [ "a" ]) ] in
        check_bool "raises" true
          (try
             Token_db.untrain_ids db Label.Spam (ids_of [| "a"; "never-seen" |]);
             false
           with Invalid_argument _ -> true);
        (* The failed untrain must not have decremented anything. *)
        check_int "nspam intact" 1 (Token_db.nspam db);
        check_int "a intact" 1 (spam_count db "a"));
    test_case "untrain without messages of that class fails" (fun () ->
        let db = db_with [ (Label.Spam, [ "a" ]) ] in
        check_bool "raises" true
          (try
             Token_db.untrain_ids db Label.Ham (ids_of [| "a" |]);
             false
           with Invalid_argument _ -> true));
    test_case "copy is independent" (fun () ->
        let db = db_with [ (Label.Ham, [ "x" ]) ] in
        let copy = Token_db.copy db in
        Token_db.train_ids copy Label.Spam (ids_of [| "x" |]);
        check_int "original spam" 0 (spam_count db "x");
        check_int "copy spam" 1 (spam_count copy "x"));
    test_case "count tables live off the OCaml heap" (fun () ->
        (* Counts never name a token, so plain ints serve as ids. *)
        let ids = Array.init 100_000 Fun.id in
        let db = Token_db.create () in
        Token_db.train_ids db Label.Spam ids;
        let copy = Token_db.copy db in
        Token_db.train_ids copy Label.Ham [| 7; 100_000 |];
        let heap_words db = Obj.reachable_words (Obj.repr db) in
        check_bool "100,000 trained ids reach under 1,000 heap words" true
          (heap_words db < 1_000);
        check_bool "a written copy reaches under 1,000 heap words" true
          (heap_words copy < 1_000);
        check_int "the copy reads its write" 1 (Token_db.ham_count_id copy 7);
        check_int "and the source's counts" 1 (Token_db.spam_count_id copy 99_999);
        check_int "the source is untouched" 0 (Token_db.ham_count_id db 7));
    test_case "save/load round-trip" (fun () ->
        let db =
          db_with
            [ (Label.Spam, [ "alpha"; "beta" ]); (Label.Ham, [ "alpha" ]);
              (Label.Ham, [ "gamma" ]) ]
        in
        match db_round_trip db with
        | Error e -> Alcotest.fail e
        | Ok db' ->
            check_int "nspam" (Token_db.nspam db) (Token_db.nspam db');
            check_int "nham" (Token_db.nham db) (Token_db.nham db');
            check_int "alpha spam" 1 (spam_count db' "alpha");
            check_int "alpha ham" 1 (ham_count db' "alpha");
            check_int "distinct" (Token_db.distinct_tokens db)
              (Token_db.distinct_tokens db'));
    test_case "load rejects garbage" (fun () ->
        check_bool "error" true
          (Result.is_error (Token_db.of_string "not a db\n")));
    test_case "save/load round-trips delimiter-laden tokens" (fun () ->
        (* Tokens come from attacker-controlled mail, so the persistence
           format must survive its own delimiters.  Version 1 wrote
           these verbatim, silently corrupting the file. *)
        let nasty =
          [ "a\tb"; "line1\nline2"; "back\\slash"; ""; "caf\xc3\xa9"; "\r" ]
        in
        let db = db_with [ (Label.Spam, nasty); (Label.Ham, [ "a\tb" ]) ] in
        match db_round_trip db with
        | Error e -> Alcotest.fail e
        | Ok db' ->
            check_int "distinct" (Token_db.distinct_tokens db)
              (Token_db.distinct_tokens db');
            List.iter
              (fun token ->
                check_int
                  ("spam count of " ^ String.escaped token)
                  (spam_count db token)
                  (spam_count db' token))
              nasty;
            check_int "tab token ham" 1 (ham_count db' "a\tb"));
    test_case "load rejects negative counts" (fun () ->
        let r = db_load_string "spamlab-token-db 2 1 1\ntok\t-1\t0\n" in
        check_bool "error" true (Result.is_error r));
    test_case "load rejects counts exceeding header totals" (fun () ->
        let r = db_load_string "spamlab-token-db 2 1 1\ntok\t2\t0\n" in
        check_bool "error" true (Result.is_error r));
    test_case "load rejects negative header counts" (fun () ->
        let r = db_load_string "spamlab-token-db 2 -1 0\n" in
        check_bool "error" true (Result.is_error r));
    test_case "load rejects duplicate token lines" (fun () ->
        let r =
          db_load_string "spamlab-token-db 2 2 0\ntok\t1\t0\ntok\t2\t0\n"
        in
        check_bool "error" true (Result.is_error r));
    test_case "load rejects bad escape sequences" (fun () ->
        let r = db_load_string "spamlab-token-db 2 1 0\nto\\xk\t1\t0\n" in
        check_bool "bad escape" true (Result.is_error r);
        let r = db_load_string "spamlab-token-db 2 1 0\ntok\\\t1\t0\n" in
        check_bool "dangling backslash" true (Result.is_error r));
    test_case "load accepts legacy v1 files verbatim" (fun () ->
        match db_load_string "spamlab-token-db 1 1 0\nback\\slash\t1\t0\n" with
        | Error e -> Alcotest.fail e
        | Ok db ->
            (* v1 never escaped, so its backslashes are literal. *)
            check_int "verbatim token" 1 (spam_count db "back\\slash"));
    test_case "fold visits every token" (fun () ->
        let db = db_with [ (Label.Ham, [ "a"; "b"; "c" ]) ] in
        check_int "count" 3
          (Token_db.fold (fun acc _ ~spam:_ ~ham:_ -> acc + 1) 0 db));
    qtest "train/untrain round-trip is identity on counts"
      QCheck2.Gen.(
        list_size (int_range 1 10)
          (string_size ~gen:(char_range 'a' 'f') (int_range 1 4)))
      (fun words ->
        let tokens = Array.of_list (List.sort_uniq compare words) in
        let db = db_with [ (Label.Ham, [ "base" ]) ] in
        Token_db.train_ids db Label.Spam (ids_of tokens);
        Token_db.untrain_ids db Label.Spam (ids_of tokens);
        Token_db.nspam db = 0
        && Array.for_all (fun t -> spam_count db t = 0) tokens);
  ]

(* ------------------------------------------------------------------ *)
(* Persistence robustness: the v3 checksummed format, corruption
   detection, salvage, and crash-safe atomic saves.                    *)

let sample_db () =
  db_with
    [
      (Label.Spam, [ "alpha"; "beta"; "cheap" ]);
      (Label.Spam, [ "beta" ]);
      (Label.Ham, [ "alpha"; "meeting" ]);
      (Label.Ham, [ "gamma" ]);
    ]

let persistence_tests =
  [
    test_case "to_string carries a v3 checksum footer" (fun () ->
        let s = Token_db.to_string (sample_db ()) in
        check_bool "v3 header" true
          (String.length s > 18 && String.sub s 0 18 = "spamlab-token-db 3");
        check_bool "footer present" true
          (let sub = "#spamlab-db-footer crc32=" in
           let n = String.length s and m = String.length sub in
           let rec scan i =
             i + m <= n && (String.sub s i m = sub || scan (i + 1))
           in
           scan 0));
    test_case "verify reports a clean v3 save" (fun () ->
        let db = sample_db () in
        match Token_db.verify_string (Token_db.to_string db) with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check_int "version" 3 r.Token_db.version;
            check_int "nspam" 2 r.Token_db.nspam;
            check_int "nham" 2 r.Token_db.nham;
            check_int "entries" (Token_db.distinct_tokens db)
              r.Token_db.entries;
            check_bool "checksum ok" true (r.Token_db.checksum = `Ok));
    test_case "verify accepts pre-v3 saves without a checksum" (fun () ->
        match
          Token_db.verify_string "spamlab-token-db 2 1 1\ntok\t1\t1\n"
        with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check_int "version" 2 r.Token_db.version;
            check_bool "checksum absent" true (r.Token_db.checksum = `Absent));
    test_case "v3 without its footer is rejected" (fun () ->
        let s = Token_db.to_string (sample_db ()) in
        let footer_start =
          let rec find i =
            if String.sub s i 1 = "#" then i else find (i + 1)
          in
          find 0
        in
        let r = Token_db.of_string (String.sub s 0 footer_start) in
        check_bool "error" true (Result.is_error r));
    test_case "footer entry-count mismatch is rejected" (fun () ->
        (* A correct CRC over a wrong count cannot happen by accident;
           build it deliberately to pin the entry-count check. *)
        let s = Token_db.to_string (sample_db ()) in
        match Token_db.verify_string s with
        | Error e -> Alcotest.fail e
        | Ok _ ->
            let broken =
              (* Flip one digit of "entries=N" (final char before \n). *)
              let b = Bytes.of_string s in
              let pos = Bytes.length b - 2 in
              Bytes.set b pos
                (if Bytes.get b pos = '9' then '8' else '9');
              Bytes.to_string b
            in
            check_bool "error" true
              (Result.is_error (Token_db.of_string broken)));
    qtest "load of any truncation never raises" ~count:200
      QCheck2.Gen.(float_range 0.0 1.0)
      (fun fraction ->
        let s = Token_db.to_string (sample_db ()) in
        let len =
          int_of_float (fraction *. float_of_int (String.length s))
        in
        let truncated = String.sub s 0 (min len (String.length s)) in
        match Token_db.of_string truncated with
        | Ok _ | Error _ -> true);
    qtest "any single corrupted byte is detected, never raises" ~count:200
      QCheck2.Gen.(pair (float_range 0.0 1.0) (int_range 1 255))
      (fun (pos_frac, mask) ->
        let s = Token_db.to_string (sample_db ()) in
        let pos =
          min
            (String.length s - 1)
            (int_of_float (pos_frac *. float_of_int (String.length s)))
        in
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
        match Token_db.of_string (Bytes.to_string b) with
        | Ok _ -> false (* a corrupt byte must not load silently *)
        | Error _ -> true);
    qtest "load of arbitrary bytes never raises" ~count:200
      QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 64))
      (fun garbage ->
        match Token_db.of_string garbage with Ok _ | Error _ -> true);
    test_case "salvage recovers the intact entries" (fun () ->
        let db = sample_db () in
        let s = Token_db.to_string db in
        (* Mangle one entry line: "beta\t2\t0" -> "beta\tX\t0". *)
        let broken =
          let b = Bytes.of_string s in
          let rec find i =
            if Bytes.get b i = 'b' && Bytes.get b (i + 1) = 'e' then i
            else find (i + 1)
          in
          let beta = find 0 in
          Bytes.set b (beta + 5) 'X';
          Bytes.to_string b
        in
        check_bool "strict load rejects" true
          (Result.is_error (Token_db.of_string broken));
        match Token_db.salvage_string broken with
        | Error e -> Alcotest.fail e
        | Ok s ->
            check_int "version" 3 s.Token_db.version;
            check_int "dropped the mangled line" 1 s.Token_db.dropped;
            check_int "kept the rest"
              (Token_db.distinct_tokens db - 1)
              s.Token_db.kept;
            check_bool "checksum failed" true
              (s.Token_db.checksum_ok = Some false);
            check_int "alpha spam intact" 1
              (spam_count s.Token_db.db "alpha");
            check_int "beta lost" 0 (spam_count s.Token_db.db "beta"));
    test_case "Filter.save_file is atomic: a failed write leaves nothing"
      (fun () ->
        let module Fault = Spamlab_fault in
        let dir = Filename.temp_file "spamlab" ".d" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let path = Filename.concat dir "filter.db" in
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir)
          (fun () ->
            let filter = Filter.create () in
            Filter.train filter Label.Spam
              (Message.make
                 ~headers:(Header.of_list [ ("subject", "cheap pills") ])
                 "cheap pills now");
            (match Fault.configure "db.save.write:fatal@1" with
            | Error e -> Alcotest.fail e
            | Ok () -> ());
            Fun.protect ~finally:Fault.disable (fun () ->
                check_bool "save raises the injected fault" true
                  (try
                     Filter.save_file filter path;
                     false
                   with Fault.Injected _ -> true));
            check_bool "no target file" false (Sys.file_exists path);
            check_int "no temp debris" 0 (Array.length (Sys.readdir dir));
            (* And with the fault cleared the same save succeeds and
               verifies. *)
            Filter.save_file filter path;
            let contents =
              In_channel.with_open_bin path In_channel.input_all
            in
            check_bool "verifies" true
              (Result.is_ok (Token_db.verify_string contents))));
    test_case "salvage checksums blank lines as the strict check does"
      (fun () ->
        (* A blank line is bytes under the checksum: inserted after the
           header of a clean save, it must fail both readings. *)
        let s = Token_db.to_string (sample_db ()) in
        let nl = String.index s '\n' in
        let blank =
          String.sub s 0 (nl + 1) ^ "\n"
          ^ String.sub s (nl + 1) (String.length s - nl - 1)
        in
        (match Token_db.verify_string blank with
        | Error e ->
            check_str "strict" "checksum mismatch: file is corrupted or truncated" e
        | Ok _ -> Alcotest.fail "strict check accepted the blank line");
        match Token_db.salvage_string blank with
        | Error e -> Alcotest.fail e
        | Ok sv ->
            check_int "kept" (Token_db.distinct_tokens (sample_db ())) sv.Token_db.kept;
            check_int "dropped" 0 sv.Token_db.dropped;
            check_bool "checksum failed" true (sv.Token_db.checksum_ok = Some false));
    test_case "every bit flip of the footer is detected" (fun () ->
        (* A case-flipped hex digit reads as the same CRC under [%x];
           the footer must be the exact line its values render to.
           The test needs a letter in the CRC to flip. *)
        let s = Token_db.to_string (sample_db ()) in
        let start = String.rindex_from s (String.length s - 2) '\n' + 1 in
        let crc = String.sub s (start + 25) 8 in
        check_bool "the CRC holds a hex letter" true
          (String.exists (fun c -> c >= 'a' && c <= 'f') crc);
        for i = start to String.length s - 1 do
          for bit = 0 to 7 do
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            if Result.is_ok (Token_db.of_string (Bytes.to_string b)) then
              Alcotest.failf "flipping bit %d of byte %d loads" bit i
          done
        done);
    test_case "loading allocates a fixed number of words per row" (fun () ->
        (* Words allocated by [of_string] on a generated canonical db
           whose tokens are already interned, so only the loader's own
           allocation counts: the least of five runs, each from an empty
           minor heap.  The db's table is a power of two of 3-int slots,
           4 to 8 words a row; the rest must not grow with the rows. *)
        let generated rows =
          let db = Token_db.create () in
          Token_db.set_message_counts db ~nspam:9 ~nham:9;
          for i = 0 to rows - 1 do
            Token_db.set_counts_id db
              (intern_id (Printf.sprintf "alloc-pin-%07d" i))
              ~spam:(1 + (i mod 9)) ~ham:(i mod 7)
          done;
          Token_db.to_string db
        in
        let words s =
          let least = ref (infinity, infinity) in
          for _ = 1 to 5 do
            Gc.minor ();
            let mi, pr, ma = Gc.counters () in
            (match Token_db.of_string s with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            let mi', pr', ma' = Gc.counters () in
            let total = mi' -. mi +. (ma' -. ma) -. (pr' -. pr)
            and major = ma' -. ma -. (pr' -. pr) in
            if total < fst !least then least := (total, major)
          done;
          !least
        in
        let small = generated 10_000 and large = generated 100_000 in
        let total_s, major_s = words small and total_l, major_l = words large in
        let per n x = x /. float_of_int n in
        List.iter
          (fun (what, n, x) ->
            if per n x > 12.0 then
              Alcotest.failf "%s: %.1f words per row, over 12" what (per n x))
          [ ("10k rows", 10_000, total_s); ("100k rows", 100_000, total_l) ];
        if per 100_000 major_l > 2.0 *. per 10_000 major_s then
          Alcotest.failf "major words per row grow with the rows: %.1f at 10k, %.1f at 100k"
            (per 10_000 major_s) (per 100_000 major_l));
  ]

(* ------------------------------------------------------------------ *)
(* Score                                                               *)

(* f(w) of a fixture token, interned, through the id entry point. *)
let smoothed options db token =
  Prob_cache.smoothed_id options db (intern_id token)

let score_tests =
  [
    test_case "unknown token scores the prior" (fun () ->
        let db = db_with [ (Label.Spam, [ "x" ]); (Label.Ham, [ "y" ]) ] in
        check_float "prior" 0.5 (smoothed Options.default db "zzz"));
    test_case "empty database scores the prior" (fun () ->
        let db = Token_db.create () in
        check_float "prior" 0.5 (smoothed Options.default db "any"));
    test_case "more evidence moves f further from prior" (fun () ->
        let weak = db_with [ (Label.Spam, [ "w" ]); (Label.Ham, [ "h" ]) ] in
        let strong =
          db_with
            [ (Label.Spam, [ "w" ]); (Label.Spam, [ "w" ]);
              (Label.Spam, [ "w" ]); (Label.Ham, [ "h" ]);
              (Label.Ham, [ "h2" ]); (Label.Ham, [ "h3" ]) ]
        in
        check_bool "stronger" true
          (smoothed Options.default strong "w" > smoothed Options.default weak "w"));
    test_case "smoothed matches Eq. 2 by hand" (fun () ->
        (* token in 1 spam of 1, 0 ham of 1: PS=1, N=1
           f = (0.45*0.5 + 1*1)/(0.45+1) = 1.225/1.45 *)
        let db = db_with [ (Label.Spam, [ "w" ]); (Label.Ham, [ "h" ]) ] in
        check_close 1e-12 "f" (1.225 /. 1.45) (smoothed Options.default db "w"));
    test_case "strength and significance" (fun () ->
        (* Strength is |f(w) − 0.5|; a token enters δ(E) when it clears
           [minimum_prob_strength]. *)
        let db = db_with [ (Label.Spam, [ "s" ]); (Label.Ham, [ "h" ]) ] in
        let strength token = Float.abs (smoothed Options.default db token -. 0.5) in
        let band = Options.default.Options.minimum_prob_strength in
        check_bool "significant spam token" true (strength "s" >= band);
        check_bool "unknown not significant" false (strength "unseen" >= band);
        check_close 1e-12 "strength of unknown" 0.0 (strength "unseen");
        let ids = Intern.intern_array [| "s"; "unseen" |] in
        let clues =
          (Classify.explain (Classify.engine Options.default db) ids (Array.length ids))
            .Classify.clues
        in
        check_bool "only the significant token is a clue" true
          (List.map (fun c -> c.Classify.token) clues = [ "s" ]));
    qtest "smoothed always in (0,1)"
      QCheck2.Gen.(
        pair (int_range 0 5) (int_range 0 5))
      (fun (s, h) ->
        let db = Token_db.create () in
        for _ = 1 to s do
          Token_db.train_ids db Label.Spam (ids_of [| "w" |])
        done;
        for _ = 1 to h do
          Token_db.train_ids db Label.Ham (ids_of [| "w" |])
        done;
        let f = smoothed Options.default db "w" in
        f > 0.0 && f < 1.0);
  ]

(* ------------------------------------------------------------------ *)
(* Classify                                                            *)

let training_db () =
  let db = Token_db.create () in
  (* 10 spam with spammy vocab, 10 ham with hammy vocab, overlap word. *)
  for i = 1 to 10 do
    Token_db.train_ids db Label.Spam
      (Intern.intern_array
         [| "viagra"; "cheap"; "offer"; "sale" ^ string_of_int i; "common" |]);
    Token_db.train_ids db Label.Ham
      (Intern.intern_array
         [| "meeting"; "report"; "budget"; "note" ^ string_of_int i; "common" |])
  done;
  db

(* The served pipeline: verdict-only scoring, and δ(E) as it selects
   it, named. *)
let score_tokens options db tokens =
  Classify.score_engine (Classify.engine options db) (Intern.intern_array tokens)

let explain_tokens options db tokens =
  let ids = Intern.intern_array tokens in
  Classify.explain (Classify.engine options db) ids (Array.length ids)

let clues_of options db tokens = (explain_tokens options db tokens).Classify.clues

(* Differential inputs for [Classify.score_probs]: a universe interned
   and ranked by one [Intern.freeze], beside strings interned after it
   (fresh per call, so never ranked when scored) that sort in between
   the ranked ones — ties across the two fall back to byte order. *)
let ranked_universe =
  lazy
    (let ids = Intern.intern_array (Array.init 40 (Printf.sprintf "sp-%02d")) in
     Intern.freeze ();
     ids)

let late_calls = ref 0

let probe_ids () =
  incr late_calls;
  let late =
    Intern.intern_array
      (Array.init 20 (fun i -> Printf.sprintf "sp-%02d~late%d" (2 * i) !late_calls))
  in
  Array.append (Lazy.force ranked_universe) late

let probe_options =
  [|
    Options.default;
    { Options.default with Options.max_discriminators = 5 };
    (* A power-of-two band: |p - 0.5| lands exactly on it for p = 0.375
       and 0.625. *)
    { Options.default with Options.minimum_prob_strength = 0.125; max_discriminators = 3 };
    { Options.default with Options.minimum_prob_strength = 0.0 };
  |]

(* Probabilities cluster on a few values, so equal strengths are
   common, and include both sides of every band edge used above. *)
let gen_prob =
  QCheck2.Gen.(
    frequency
      [
        (3, oneofl [ 0.0; 1.0; 0.5; 0.375; 0.625; 0.4; 0.6; 0.9; 0.1; 0.99; 0.01 ]);
        (1, float_range 0.0 1.0);
      ])

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The fewest minor words [f] allocates in 5 runs, each after a minor
   collection. *)
let least_minor_words f =
  List.fold_left Float.min infinity
    (List.init 5 (fun _ ->
         Gc.minor ();
         let before = Gc.minor_words () in
         f ();
         Gc.minor_words () -. before))

let classify_tests =
  [
    test_case "discriminators exclude the neutral band" (fun () ->
        let db = training_db () in
        let clues = clues_of Options.default db [| "viagra"; "common"; "meeting" |] in
        let tokens = List.map (fun c -> c.Classify.token) clues in
        check_bool "viagra in" true (List.mem "viagra" tokens);
        check_bool "meeting in" true (List.mem "meeting" tokens);
        check_bool "common excluded" false (List.mem "common" tokens);
        check_bool "every clue outside the band" true
          (List.for_all
             (fun c ->
               Float.abs (c.Classify.score -. 0.5)
               >= Options.default.Options.minimum_prob_strength)
             clues));
    test_case "discriminators sorted by strength" (fun () ->
        let db = training_db () in
        Token_db.train_ids db Label.Spam (ids_of [| "weakish" |]);
        Token_db.train_ids db Label.Ham (ids_of [| "weakish" |]);
        Token_db.train_ids db Label.Spam (ids_of [| "weakish" |]);
        (match clues_of Options.default db [| "weakish"; "viagra" |] with
        | first :: _ -> check_str "strongest first" "viagra" first.Classify.token
        | [] -> Alcotest.fail "no clues");
        (* The whole list: strength descending, ties by token bytes. *)
        let clues =
          clues_of Options.default db
            [| "viagra"; "cheap"; "offer"; "meeting"; "report"; "sale3"; "note7" |]
        in
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              let sa = Float.abs (a.Classify.score -. 0.5)
              and sb = Float.abs (b.Classify.score -. 0.5) in
              (sa > sb || (sa = sb && String.compare a.Classify.token b.Classify.token < 0))
              && sorted rest
          | _ -> true
        in
        check_int "all seven selected" 7 (List.length clues);
        check_bool "strength desc, ties by bytes" true (sorted clues));
    test_case "max_discriminators caps the clue list" (fun () ->
        let db = Token_db.create () in
        let tokens = Array.init 300 (fun i -> "tok" ^ string_of_int i) in
        Token_db.train_ids db Label.Spam (ids_of tokens);
        Token_db.train_ids db Label.Ham (ids_of [| "other" |]);
        let options = { Options.default with Options.max_discriminators = 7 } in
        check_int "capped" 7 (List.length (clues_of options db tokens));
        check_int "capped at the paper's 150" 150
          (List.length (clues_of Options.default db tokens)));
    test_case "no evidence scores 0.5 and lands unsure" (fun () ->
        let r = score_tokens Options.default (Token_db.create ()) [| "a"; "b" |] in
        check_float "indicator" 0.5 r.Classify.indicator;
        check_bool "unsure" true (r.Classify.verdict = Label.Unsure_v));
    test_case "verdict thresholds at the boundaries" (fun () ->
        (* SpamBayes semantics: a score exactly at a cutoff takes the
           more severe class.  Regression for the former <= comparisons,
           which classified I = spam_cutoff as unsure and I = ham_cutoff
           as ham. *)
        let v = Classify.verdict_of_indicator Options.default in
        check_bool "0 ham" true (v 0.0 = Label.Ham_v);
        check_bool "just below 0.15 ham" true (v 0.1499999 = Label.Ham_v);
        check_bool "0.15 unsure (boundary is unsure)" true
          (v 0.15 = Label.Unsure_v);
        check_bool "just below 0.9 unsure" true (v 0.8999999 = Label.Unsure_v);
        check_bool "0.9 spam (boundary is spam)" true (v 0.9 = Label.Spam_v);
        check_bool "1 spam" true (v 1.0 = Label.Spam_v));
    test_case "boundary semantics hold for custom cutoffs" (fun () ->
        let options =
          Options.with_cutoffs Options.default ~ham:0.25 ~spam:0.75
        in
        let v = Classify.verdict_of_indicator options in
        check_bool "0.25 unsure" true (v 0.25 = Label.Unsure_v);
        check_bool "0.75 spam" true (v 0.75 = Label.Spam_v));
    test_case "spammy tokens classify spam, hammy ham" (fun () ->
        let db = training_db () in
        let spam_result =
          score_tokens Options.default db [| "viagra"; "cheap"; "offer" |]
        in
        let ham_result =
          score_tokens Options.default db [| "meeting"; "report"; "budget" |]
        in
        check_bool "spam" true (spam_result.Classify.verdict = Label.Spam_v);
        check_bool "ham" true (ham_result.Classify.verdict = Label.Ham_v);
        check_bool "order" true
          (spam_result.Classify.indicator > ham_result.Classify.indicator));
    test_case "indicator_of_clues empty is 0.5" (fun () ->
        check_float "oracle" 0.5 (Spamlab_oracle.Scoring.indicator_of_clues []);
        (* Empty δ(E) on the served stage: nothing at all, and nothing
           outside the band. *)
        let ids = Intern.intern_array [| "a"; "b" |] in
        let none = Classify.score_probs Options.default ids [| 0.5; 0.55 |] 0 in
        check_float "n = 0" 0.5 none.Classify.indicator;
        check_bool "no clues" true (none.Classify.clues = []);
        let banded = Classify.score_probs Options.default ids [| 0.5; 0.55 |] 2 in
        check_float "all in the band" 0.5 banded.Classify.indicator;
        check_bool "unsure" true (banded.Classify.verdict = Label.Unsure_v));
    qtest "indicator always in [0,1]"
      QCheck2.Gen.(
        list_size (int_range 1 30) (float_range 0.01 0.99))
      (fun scores ->
        let ids =
          Intern.intern_array
            (Array.of_list (List.mapi (fun i _ -> "t" ^ string_of_int i) scores))
        in
        let i =
          (Classify.score_probs Options.default ids (Array.of_list scores)
             (Array.length ids))
            .Classify.indicator
        in
        i >= 0.0 && i <= 1.0);
    qtest ~count:300 "score_probs equals the list oracle"
      QCheck2.Gen.(
        triple
          (int_range 0 (Array.length probe_options - 1))
          (list_size (int_range 0 200) (int_range 0 59))
          (array_size (return 60) gen_prob))
      (fun (o, picks, prob_of) ->
        (* Duplicate picks repeat an id with its one probability, as
           every caller's probabilities are a function of the id. *)
        let options = probe_options.(o) in
        let universe = probe_ids () in
        let ids = Array.of_list (List.map (fun k -> universe.(k)) picks) in
        let probs = Array.of_list (List.map (fun k -> prob_of.(k)) picks) in
        let n = Array.length ids in
        (* Backing arrays longer than the prefix: only [0, n) counts. *)
        let ids_arr = Array.append ids [| universe.(0) |] in
        let probs_arr = Array.append probs [| 0.99 |] in
        let before = Array.copy probs_arr in
        let got = Classify.score_probs options ids_arr probs_arr n in
        let want =
          Spamlab_oracle.Scoring.score_clues options
            (List.init n (fun i ->
                 { Classify.token = Intern.to_string ids.(i); score = probs.(i) }))
        in
        bits_equal got.Classify.indicator want.Classify.indicator
        && got.Classify.verdict = want.Classify.verdict
        && got.Classify.clues = []
        && Array.for_all2 bits_equal before probs_arr);
    test_case "verdict-only scoring allocates nothing per winner" (fun () ->
        (* Two 200-token messages: one of 200 spam hapaxes, each strong
           enough to be a clue, so the paper's 150 win; one of 10 such
           hapaxes and 190 tokens seen once in each class, which score
           exactly 0.5, so 10 win.  Scoring either allocates the same
           minor words, through the uncached and the cached engine;
           explaining names every winner. *)
        let db = Token_db.create () in
        let strong = Array.init 200 (Printf.sprintf "alloc-winner-%03d") in
        let neutral = Array.init 190 (Printf.sprintf "alloc-neutral-%03d") in
        Token_db.train_ids db Label.Spam (ids_of (Array.append strong neutral));
        Token_db.train_ids db Label.Ham (ids_of neutral);
        Intern.freeze ();
        let few = ids_of (Array.append (Array.sub strong 0 10) neutral)
        and many = ids_of strong in
        List.iter
          (fun (what, engine) ->
            let score ids () = ignore (Classify.score_engine engine ids) in
            score many ();
            Alcotest.(check (float 0.))
              (what ^ ": minor words at 10 and 150 winners")
              (least_minor_words (score few))
              (least_minor_words (score many));
            let named ids =
              List.length (Classify.explain engine ids (Array.length ids)).Classify.clues
            in
            check_int (what ^ ": 10 named") 10 (named few);
            check_int (what ^ ": 150 named") 150 (named many))
          [
            ("uncached", Classify.engine Options.default db);
            ("cached", Classify.engine_cached (Prob_cache.create Options.default db));
          ]);
    test_case "verdict-only scoring allocates nothing per token" (fun () ->
        (* A 50-token message of spam hapaxes, and the same 50 beside
           750 tokens seen once in each class, which score exactly 0.5
           under equal totals: the same winners, 16 times the tokens.
           Scoring either allocates the same minor words under every
           engine, since each engine's loop writes its probabilities
           straight into the scoring scratch.  The overlay engines
           score copies of the db through a shared cache over it, as
           the store's tenants score over its prior: a fresh tenant's
           totals are the prior's, so it reads the cache; a trained
           tenant's are not, so it reads its own counts.  A private
           cache whose db is written before every scoring refills
           every slot it reads. *)
        let strong = Array.init 50 (Printf.sprintf "alloc-strong-%02d") in
        let neutral = Array.init 750 (Printf.sprintf "alloc-neutral-%03d") in
        let db = Token_db.create () in
        Token_db.train_ids db Label.Spam (ids_of (Array.append strong neutral));
        Token_db.train_ids db Label.Ham (ids_of neutral);
        let trained = Token_db.copy db in
        let extra = ids_of [| "alloc-extra-spam"; "alloc-extra-ham" |] in
        Token_db.train_ids trained Label.Spam extra;
        Token_db.train_ids trained Label.Ham extra;
        Intern.freeze ();
        let shared = Prob_cache.create ~shared:true Options.default db in
        let short = ids_of strong
        and long = ids_of (Array.append strong neutral) in
        let warm () = () in
        let refill () =
          Token_db.train_ids trained Label.Spam extra;
          Token_db.untrain_ids trained Label.Spam extra
        in
        List.iter
          (fun (what, engine, before) ->
            let score ids () =
              before ();
              ignore (Classify.score_engine engine ids)
            in
            score long ();
            Alcotest.(check (float 0.))
              (what ^ ": minor words at 50 and 800 tokens")
              (least_minor_words (score short))
              (least_minor_words (score long)))
          [
            ("uncached", Classify.engine Options.default db, warm);
            ("private cache", Classify.engine_cached (Prob_cache.create Options.default db), warm);
            ("shared cache", Classify.engine_cached shared, warm);
            ("fresh tenant", Classify.engine_overlay shared (Token_db.copy db), warm);
            ("trained tenant", Classify.engine_overlay shared trained, warm);
            ("refilled private cache",
              Classify.engine_cached (Prob_cache.create Options.default trained), refill);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Filter                                                              *)

let mk_msg subject body =
  Message.make ~headers:(Header.of_list [ ("Subject", subject) ]) body

let filter_tests =
  [
    test_case "end-to-end train and classify" (fun () ->
        let filter = Filter.create () in
        for _ = 1 to 8 do
          Filter.train filter Label.Spam
            (mk_msg "cheap pills" "buy cheap pills online today");
          Filter.train filter Label.Ham
            (mk_msg "budget meeting" "quarterly budget review meeting notes")
        done;
        let score m = (Filter.classify filter m).Classify.indicator in
        let spam_score = score (mk_msg "pills" "cheap pills online") in
        let ham_score = score (mk_msg "meeting" "budget meeting notes") in
        check_bool "spam high" true (spam_score > 0.9);
        check_bool "ham low" true (ham_score < 0.15));
    test_case "filter copy is independent" (fun () ->
        let filter = Filter.create () in
        Filter.train filter Label.Ham (mk_msg "a" "alpha beta gamma");
        let copy = Filter.copy filter in
        Filter.train copy Label.Spam (mk_msg "b" "delta epsilon zeta");
        check_int "original nspam" 0 (Token_db.nspam (Filter.db filter));
        check_int "copy nspam" 1 (Token_db.nspam (Filter.db copy)));
    test_case "set_options shares the database" (fun () ->
        let filter = Filter.create () in
        Filter.train filter Label.Ham (mk_msg "a" "alpha beta gamma");
        let strict =
          Filter.set_options filter
            (Options.with_cutoffs (Filter.options filter) ~ham:0.05 ~spam:0.5)
        in
        check_int "same nham" 1 (Token_db.nham (Filter.db strict));
        check_bool "same db" true (Filter.db strict == Filter.db filter));
    test_case "train_corpus trains everything" (fun () ->
        (* A labelled corpus trains through [Dataset.train_filter]. *)
        let filter = Filter.create () in
        Spamlab_corpus.Dataset.train_filter filter
          (Spamlab_corpus.Dataset.of_labeled Spamlab_tokenizer.Tokenizer.spambayes
             [| (Label.Ham, mk_msg "a" "one two three");
                (Label.Spam, mk_msg "b" "four five six") |]);
        check_int "nham" 1 (Token_db.nham (Filter.db filter));
        check_int "nspam" 1 (Token_db.nspam (Filter.db filter)));
    test_case "untrain reverses a training mistake" (fun () ->
        let filter = Filter.create () in
        let msg = mk_msg "oops" "mistaken words here" in
        Filter.train filter Label.Spam msg;
        Token_db.untrain_ids (Filter.db filter) Label.Spam
          (Intern.intern_array (Filter.features filter msg));
        check_int "nspam" 0 (Token_db.nspam (Filter.db filter));
        check_int "distinct" 0 (Token_db.distinct_tokens (Filter.db filter)));
    test_case "save/load file round-trip preserves classification" (fun () ->
        let filter = Filter.create () in
        for _ = 1 to 5 do
          Filter.train filter Label.Spam (mk_msg "win" "win money now fast");
          Filter.train filter Label.Ham (mk_msg "log" "server log attached here")
        done;
        let path = Filename.temp_file "spamlab" ".filter" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Filter.save_file filter path;
            match Filter.load_file path with
            | Error e -> Alcotest.fail e
            | Ok loaded ->
                let probe = mk_msg "win" "win money fast" in
                let score f = (Filter.classify f probe).Classify.indicator in
                check_close 1e-12 "same score" (score filter) (score loaded)));
    test_case "token_score of unknown is the prior" (fun () ->
        let filter = Filter.create () in
        check_float "prior" 0.5
          (smoothed (Filter.options filter) (Filter.db filter) "unseen"));
    test_case "features uses the filter's tokenizer" (fun () ->
        let filter =
          Filter.create
            ~tokenizer:
              (Option.get (Spamlab_tokenizer.Tokenizer.find "bogofilter"))
            ()
        in
        let feats = Filter.features filter (mk_msg "Topic" "extraordinarily long") in
        check_bool "bogofilter keeps long words" true
          (Array.exists (( = ) "extraordinarily") feats));
  ]

(* ------------------------------------------------------------------ *)
(* Cross-cutting properties                                            *)

let property_tests =
  [
    qtest "verdict is monotone in the indicator" ~count:200
      QCheck2.Gen.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
      (fun (a, b) ->
        let lo = Float.min a b and hi = Float.max a b in
        let rank v =
          match Classify.verdict_of_indicator Options.default v with
          | Label.Ham_v -> 0
          | Label.Unsure_v -> 1
          | Label.Spam_v -> 2
        in
        rank lo <= rank hi);
    qtest "adding a spammy clue never lowers the indicator" ~count:100
      QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.05 0.95))
      (fun scores ->
        let clues = Array.of_list scores in
        let n = Array.length clues in
        let with_spammy = Array.append [| 0.99 |] clues in
        Spamlab_stats.Fisher.indicator with_spammy (n + 1)
        >= Spamlab_stats.Fisher.indicator clues n -. 1e-9);
    qtest "train_many k equals k trains for random token sets" ~count:50
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 8)
             (string_size ~gen:(char_range 'a' 'f') (int_range 1 4)))
          (int_range 0 7))
      (fun (words, k) ->
        let tokens = Array.of_list (List.sort_uniq compare words) in
        let a = Token_db.create () in
        let b = Token_db.create () in
        Token_db.train_many_ids a Label.Spam (ids_of tokens) k;
        for _ = 1 to k do
          Token_db.train_ids b Label.Spam (ids_of tokens)
        done;
        Token_db.nspam a = Token_db.nspam b
        && Array.for_all
             (fun t -> spam_count a t = spam_count b t)
             tokens);
    qtest "save/load round-trips random databases" ~count:100
      (* The token alphabet deliberately includes the format's own
         delimiters (tab, newline, carriage return, backslash), raw
         UTF-8 bytes, and — via size 0 — the empty token. *)
      QCheck2.Gen.(
        list_size (int_range 0 20)
          (triple
             (string_size
                ~gen:
                  (oneofl
                     [ 'a'; 'b'; 'c'; '\t'; '\n'; '\r'; '\\'; ' '; '\xc3';
                       '\xa9' ])
                (int_range 0 5))
             bool (int_range 1 3)))
      (fun entries ->
        let db = Token_db.create () in
        List.iter
          (fun (token, is_spam, times) ->
            let label = if is_spam then Label.Spam else Label.Ham in
            Token_db.train_many_ids db label (ids_of [| token |]) times)
          entries;
        match db_round_trip db with
        | Error _ -> false
        | Ok db' ->
            Token_db.nspam db = Token_db.nspam db'
            && Token_db.nham db = Token_db.nham db'
            && Token_db.distinct_tokens db = Token_db.distinct_tokens db'
            && Token_db.fold
                 (fun acc id ~spam ~ham ->
                   acc
                   && Token_db.spam_count_id db' id = spam
                   && Token_db.ham_count_id db' id = ham)
                 true db);
    qtest "score_tokens indicator bounded for random dbs" ~count:100
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 15)
             (triple
                (string_size ~gen:(char_range 'a' 'e') (int_range 1 3))
                bool (int_range 1 4)))
          (list_size (int_range 1 10)
             (string_size ~gen:(char_range 'a' 'e') (int_range 1 3))))
      (fun (training, message) ->
        let db = Token_db.create () in
        List.iter
          (fun (token, is_spam, times) ->
            let label = if is_spam then Label.Spam else Label.Ham in
            Token_db.train_many_ids db label (ids_of [| token |]) times)
          training;
        let tokens =
          Array.of_list (List.sort_uniq compare message)
        in
        let r = score_tokens Options.default db tokens in
        (* The served pipeline also agrees with the string-keyed list
           pipeline on every random db: verdict-only scoring on the
           indicator, [explain] on the clues too. *)
        let want = Spamlab_oracle.Scoring.score_tokens Options.default db tokens in
        let named = explain_tokens Options.default db tokens in
        r.Classify.indicator >= 0.0 && r.Classify.indicator <= 1.0
        && bits_equal r.Classify.indicator want.Classify.indicator
        && r.Classify.clues = []
        && bits_equal named.Classify.indicator want.Classify.indicator
        && named.Classify.clues = want.Classify.clues);
  ]

(* ------------------------------------------------------------------ *)
(* The row scanner against the line-splitting reader it replaced       *)

module Lines = Spamlab_oracle.Db_lines

(* A generated db file, rendered with a per-case salt in front of the
   salted tokens so that what a reading interns is new to the table. *)
type line =
  | Blank
  | Row of string * bool * string * string * bool
      (* raw token field, salted, spam field, ham field, CRLF *)
  | Raw of string

type file = {
  version : int;
  nspam : int;
  nham : int;
  lines : line list;
  footer : [ `None | `Right | `Off_by_one | `Bad ];
  trailer : string;
  mutation : [ `None | `Truncate of float | `Flip of float * int ];
}

let render ~salt f =
  let b = Buffer.create 256 in
  Printf.bprintf b "spamlab-token-db %d %d %d\n" f.version f.nspam f.nham;
  let entries = ref 0 in
  List.iter
    (function
      | Blank -> Buffer.add_char b '\n'
      | Row (tok, salted, spam, ham, crlf) ->
          incr entries;
          Printf.bprintf b "%s%s\t%s\t%s%s\n"
            (if salted then salt else "")
            tok spam ham
            (if crlf then "\r" else "")
      | Raw line ->
          incr entries;
          Printf.bprintf b "%s\n" line)
    f.lines;
  let crc = Lines.crc_finish (Lines.crc_feed Lines.crc_init (Buffer.contents b)) in
  (match f.footer with
  | `None -> ()
  | `Right -> Printf.bprintf b "#spamlab-db-footer crc32=%08x entries=%d\n" crc !entries
  | `Off_by_one ->
      Printf.bprintf b "#spamlab-db-footer crc32=%08x entries=%d\n" crc (!entries + 1)
  | `Bad -> Buffer.add_string b "#spamlab-db-footer crc32=zz entries=1\n");
  Buffer.add_string b f.trailer;
  let s = Buffer.contents b in
  let at frac = min (String.length s - 1) (int_of_float (frac *. float_of_int (String.length s))) in
  match f.mutation with
  | `None -> s
  | `Truncate frac -> String.sub s 0 (at frac)
  | `Flip (frac, bit) ->
      let b = Bytes.of_string s in
      let i = at frac in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.to_string b

(* Token fields as written: plain, empty, escaped (good and bad) and
   8-bit; counts in every form [int_of_string_opt] reads, and some it
   does not. *)
let clean_tokens = [ ""; "a"; "b"; "tok"; "x\\ny"; "\\\\"; "\\t"; "\xe9t\xe9"; "a\\rb" ]
let noisy_tokens = clean_tokens @ [ "bad\\q"; "dangling\\"; "sp ace" ]
let clean_counts = [ "0"; "0"; "1"; "2"; "3" ]

let noisy_counts =
  clean_counts
  @ [ "+5"; "0x1f"; "1_0"; "-0"; "-1"; "12345678901234567890"; "007"; ""; "x"; "4611686018427387903" ]

let file_gen =
  let open QCheck2.Gen in
  let* clean = bool in
  let* version = oneofl [ 1; 2; 3; 3 ] in
  let* nspam = int_range (if clean then 3 else 0) 4
  and* nham = int_range (if clean then 3 else 0) 4 in
  let count = oneofl (if clean then clean_counts else noisy_counts) in
  let row =
    let* tok = oneofl (if clean then clean_tokens else noisy_tokens)
    and* salted = bool
    and* spam = count
    and* ham = count
    and* crlf = if clean then pure false else frequency [ (5, pure false); (1, pure true) ] in
    pure (Row (tok, salted, spam, ham, crlf))
  in
  let line =
    frequency
      ([ (8, row); (1, pure Blank) ]
      @ if clean then [] else [ (1, oneofl [ Raw "justtoken"; Raw "a\tb\tc\td"; Raw "a\t1" ]) ])
  in
  let* lines = list_size (int_range 0 8) line in
  (* A clean file names each token once. *)
  let lines =
    if not clean then lines
    else
      List.fold_left
        (fun acc l ->
          match l with
          | Row (tok, salted, _, _, _)
            when List.exists
                   (function Row (t, s, _, _, _) -> t = tok && s = salted | _ -> false)
                   acc ->
              acc
          | l -> l :: acc)
        [] lines
      |> List.rev
  in
  let* footer =
    if clean then pure (if version = 3 then `Right else `None)
    else oneofl [ `None; `Right; `Right; `Off_by_one; `Bad ]
  in
  let* trailer =
    if clean then pure "" else oneofl [ ""; ""; "\n"; "junk\n"; "#spamlab-db-footer crc32=0 entries=0\n" ]
  in
  let* mutation =
    if clean then pure `None
    else
      frequency
        [ (3, pure `None);
          (1, map (fun f -> `Truncate f) (float_range 0.0 1.0));
          (1, map2 (fun f b -> `Flip (f, b)) (float_range 0.0 1.0) (int_range 0 7)) ]
  in
  pure { version; nspam; nham; lines; footer; trailer; mutation }

let print_file f = Printf.sprintf "%S" (render ~salt:"" f)

(* What a reading loads: the oracle hands every entry row to
   [load_row]; a db interns and keeps the non-zero ones. *)
let oracle_rows read s =
  let rows = ref [] in
  let r = read ~load_row:(fun tok ~spam ~ham -> rows := (tok, spam, ham) :: !rows) s in
  (r, List.filter (fun (_, spam, ham) -> spam <> 0 || ham <> 0) (List.rev !rows))

let db_of_rows ~nspam ~nham rows =
  let db = Token_db.create () in
  Token_db.set_message_counts db ~nspam ~nham;
  List.iter (fun (tok, spam, ham) -> Token_db.set_counts_id db (intern_id tok) ~spam ~ham) rows;
  db

let unseen rows =
  List.length
    (List.sort_uniq String.compare
       (List.filter_map (fun (tok, _, _) -> if Intern.find tok = None then Some tok else None) rows))

(* [f ()] must intern exactly the strings of [rows] the table lacks. *)
let grows_by rows f =
  let want = unseen rows and before = Intern.size () in
  let r = f () in
  let got = Intern.size () - before in
  if got <> want then Alcotest.failf "interned %d new strings, the oracle %d" got want;
  r

let same_db what want got =
  if Token_db.to_string want <> Token_db.to_string got then
    Alcotest.failf "%s: db bytes differ:\n%S\n%S" what (Token_db.to_string want)
      (Token_db.to_string got)

let agrees_with_lines s =
  let strict, rows = oracle_rows Lines.verify_string s in
  let verified = grows_by rows (fun () -> Token_db.verify_string s) in
  (match (strict, verified) with
  | Ok w, Ok g ->
      if
        (w.Lines.version, w.Lines.nspam, w.Lines.nham, w.Lines.entries, w.Lines.checksum)
        <> (g.Token_db.version, g.Token_db.nspam, g.Token_db.nham, g.Token_db.entries,
            g.Token_db.checksum)
      then Alcotest.fail "verify reports differ"
  | Error w, Error g -> check_str "verify error" w g
  | Ok _, Error g -> Alcotest.failf "verify: oracle accepts, scanner says %S" g
  | Error w, Ok _ -> Alcotest.failf "verify: oracle says %S, scanner accepts" w);
  (match (strict, grows_by [] (fun () -> Token_db.of_string s)) with
  | Ok w, Ok db ->
      same_db "of_string" (db_of_rows ~nspam:w.Lines.nspam ~nham:w.Lines.nham rows) db
  | Error w, Error g -> check_str "of_string error" w g
  | _ -> Alcotest.fail "of_string and the oracle disagree on acceptance");
  let salvaged, rows = oracle_rows Lines.salvage_string s in
  match (salvaged, grows_by rows (fun () -> Token_db.salvage_string s)) with
  | Ok w, Ok g ->
      if
        (w.Lines.s_version, w.Lines.kept, w.Lines.dropped, w.Lines.checksum_ok)
        <> (g.Token_db.version, g.Token_db.kept, g.Token_db.dropped, g.Token_db.checksum_ok)
      then Alcotest.fail "salvage reports differ";
      same_db "salvage" (db_of_rows ~nspam:w.Lines.s_nspam ~nham:w.Lines.s_nham rows)
        g.Token_db.db
  | Error w, Error g -> check_str "salvage error" w g
  | _ -> Alcotest.fail "salvage and the oracle disagree on acceptance"

let salts = ref 0

let fresh_salt () =
  incr salts;
  Printf.sprintf "s%d~" !salts

(* One file with every token form, a zero-count row and a blank line
   under a right checksum: the exhaustive truncations and bit flips
   start from it. *)
let exhaustive_file =
  {
    version = 3;
    nspam = 3;
    nham = 2;
    lines =
      [ Row ("", false, "1", "0", false); Row ("a", true, "0", "0", false); Blank;
        Row ("x\\ny", true, "3", "2", false); Row ("\xe9t\xe9", true, "0", "1", false) ];
    footer = `Right;
    trailer = "";
    mutation = `None;
  }

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:600 ~print:print_file
         ~name:"of_string, verify_string, salvage_string match the line reader"
         file_gen
         (fun f ->
           agrees_with_lines (render ~salt:(fresh_salt ()) f);
           true));
    test_case "duplicates, zero and non-zero in both orders, read as the line reader does"
      (fun () ->
        List.iter
          (fun (first, second) ->
            let salt = fresh_salt () in
            let dup =
              Printf.sprintf "spamlab-token-db 2 3 3\n%sd\t%s\n%sd\t%s\n" salt first salt
                second
            in
            agrees_with_lines dup;
            match Token_db.of_string dup with
            | Error e -> check_str "error" (Printf.sprintf "duplicate token %S" (salt ^ "d")) e
            | Ok _ -> Alcotest.fail "a duplicate loaded")
          [ ("0\t0", "1\t0"); ("1\t0", "0\t0"); ("1\t1", "2\t0"); ("0\t0", "0\t0") ]);
    test_case "every truncation and every bit flip reads as the line reader does"
      (fun () ->
        let s = render ~salt:(fresh_salt ()) exhaustive_file in
        (match Token_db.of_string s with Ok _ -> () | Error e -> Alcotest.fail e);
        for k = 0 to String.length s do
          agrees_with_lines (String.sub s 0 k)
        done;
        for i = 0 to String.length s - 1 do
          for bit = 0 to 7 do
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            agrees_with_lines (Bytes.to_string b)
          done
        done);
  ]

(* Last in this binary: it interns 2^17 fresh tokens, which every
   later test's intern freezes would have to copy. *)
let load_growth_tests =
  [
    test_case "a db load grows the slot table at most once" (fun () ->
        (* Twice past the slot table's size, whatever it is: the table
           holds at most half as many keys as slots, has at least 2^17
           slots, and has more than 4 slots per key only after a
           reservation for more rows than were interned. *)
        let n = max 131_073 ((4 * Intern.size ()) + 1) in
        let b = Buffer.create (24 * n) in
        Buffer.add_string b "spamlab-token-db 2 1 0\n";
        for i = 1 to n do
          Printf.bprintf b "reserve-load-%d\t1\t0\n" i
        done;
        (match Spamlab_fault.configure "intern.grow:fatal@2" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        match
          Fun.protect ~finally:Spamlab_fault.disable (fun () ->
              Token_db.of_string (Buffer.contents b))
        with
        | Ok db -> Alcotest.(check int) "rows loaded" n (Token_db.distinct_tokens db)
        | Error e -> Alcotest.fail e);
  ]

let () =
  Alcotest.run "spambayes"
    [
      ("label", label_tests);
      ("options", options_tests);
      ("token_db", token_db_tests);
      ("persistence", persistence_tests);
      ("oracle", oracle_tests);
      ("score", score_tests);
      ("classify", classify_tests);
      ("filter", filter_tests);
      ("properties", property_tests);
      ("load growth", load_growth_tests);
    ]

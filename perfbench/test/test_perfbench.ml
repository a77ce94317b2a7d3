(* The benchmark's own arithmetic and output checks, on synthetic
   inputs. *)

module SB = Spamlab_spambayes

let approx = Alcotest.float 1e-9

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let xs = ascending 1000 in
  Alcotest.check approx "p50 of 1..1000" 500.0 (Stats.percentile xs 500);
  Alcotest.check approx "p99 of 1..1000" 990.0 (Stats.percentile xs 990);
  Alcotest.check approx "p99 of 1..10" 10.0 (Stats.percentile (ascending 10) 990);
  Alcotest.(check int) "10 samples beyond p99 at n=1000" 10 (Stats.beyond ~n:1000 990)

let test_tail_needs_ten_beyond () =
  Alcotest.(check bool) "n=1000 supports p99" true (Stats.supports ~n:1000 990);
  Alcotest.(check bool) "n=999 does not" false (Stats.supports ~n:999 990);
  Alcotest.(check bool) "n=100 supports p90" true (Stats.supports ~n:100 900);
  (match Stats.latency ~tail:900 (ascending 100) with
  | Ok l -> Alcotest.check approx "p90 of 1..100" 90.0 l.tail
  | Error e -> Alcotest.fail e);
  (match Stats.latency (ascending 999) with
  | Ok _ -> Alcotest.fail "p99 reported from 999 samples"
  | Error e ->
      Alcotest.(check bool)
        "the error states the sample count" true
        (String.starts_with ~prefix:"999 samples" e));
  match Stats.latency (Array.map (fun x -> x /. 1000.0) (ascending 1000)) with
  | Error e -> Alcotest.fail e
  | Ok l ->
      Alcotest.(check int) "sample count" 1000 l.n;
      Alcotest.check approx "p50" 0.5 l.p50;
      Alcotest.check approx "p99" 0.99 l.tail

let test_latency_ignores_order () =
  let xs = ascending 2000 in
  let shuffled = Array.copy xs in
  Spamlab_stats.Rng.shuffle (Spamlab_stats.Rng.create 7) shuffled;
  match (Stats.latency xs, Stats.latency shuffled) with
  | Ok a, Ok b ->
      Alcotest.check approx "same p50" a.p50 b.p50;
      Alcotest.check approx "same p99" a.tail b.tail
  | _ -> Alcotest.fail "2000 samples must support p99"

let test_median () =
  Alcotest.check approx "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check approx "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

(* ------------------------------------------------------------------ *)
(* Windowed medians                                                    *)

(* [per_window.(w)] values finishing evenly inside one-second window
   [w] of a pass starting at 100 s. *)
let windowed per_window =
  let finished, values =
    List.split
      (List.concat
         (List.mapi
            (fun w vs ->
              let n = float_of_int (List.length vs) in
              List.mapi (fun k v -> (100.0 +. float_of_int w +. (float_of_int k /. n), v)) vs)
            per_window))
  in
  (Array.of_list finished, Array.of_list values)

let test_windowed_median () =
  let calm = [ 1.0; 1.0; 5.0 ] in
  let finished, values = windowed [ calm; calm; [ 1.0; 9.0; 1.0 ]; calm ] in
  Alcotest.check approx "each window's outlier is ignored" 1.0
    (Stats.windowed_median ~t0:100.0 ~elapsed:4.0 ~windows:4 ~finished values);
  (* A host at 20 or at 28 by phase: the result follows the mix of
     phases instead of jumping to whichever holds the majority. *)
  let phases slow =
    windowed (List.init 10 (fun w -> if w < slow then [ 28.0; 28.0 ] else [ 20.0; 20.0 ]))
  in
  let at slow =
    let finished, values = phases slow in
    Stats.windowed_median ~t0:100.0 ~elapsed:10.0 ~windows:10 ~finished values
  in
  Alcotest.check approx "four slow windows of ten" 23.2 (at 4);
  Alcotest.check approx "six slow windows of ten" 24.8 (at 6);
  let finished, values = windowed [ calm; []; calm ] in
  Alcotest.check approx "an empty window is skipped" 1.0
    (Stats.windowed_median ~t0:100.0 ~elapsed:3.0 ~windows:3 ~finished values);
  Alcotest.check approx "values outside the pass are ignored" 1.0
    (Stats.windowed_median ~t0:100.0 ~elapsed:3.0 ~windows:3
       ~finished:(Array.append finished [| 99.5; 103.5 |])
       (Array.append values [| 50.0; 50.0 |]));
  Alcotest.check_raises "no windows"
    (Invalid_argument "Stats.windowed_median: need windows >= 1 and elapsed > 0")
    (fun () ->
      ignore (Stats.windowed_median ~t0:0.0 ~elapsed:1.0 ~windows:0 ~finished values))

(* ------------------------------------------------------------------ *)
(* Stage shares                                                        *)

let test_shares () =
  let s = Stats.shares ~total:10.0 [ ("a", 2.0); ("b", 3.0) ] in
  Alcotest.(check (list (pair string approx)))
    "each stage over the total"
    [ ("a", 0.2); ("b", 0.3) ]
    s.stages;
  Alcotest.check approx "remainder" 0.5 s.unattributed;
  let full = Stats.shares ~total:4.0 [ ("a", 1.0); ("b", 3.0) ] in
  Alcotest.check approx "fully attributed" 0.0 full.unattributed;
  let over = Stats.shares ~total:4.0 [ ("a", 3.0); ("b", 3.0) ] in
  Alcotest.check approx "overlapping stages go negative" (-0.5) over.unattributed;
  Alcotest.check_raises "total must be positive"
    (Invalid_argument "Stats.shares: total must be > 0") (fun () ->
      ignore (Stats.shares ~total:0.0 []))

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let result verdict indicator =
  Some { SB.Classify.indicator; verdict; clues = [] }

let test_render_verdicts () =
  Alcotest.(check string)
    "daemon wire format" "0 ham 0.012500\n1 malformed\n2 spam 0.999000\n"
    (Checks.render_verdicts
       [| result SB.Label.Ham_v 0.0125; None; result SB.Label.Spam_v 0.999 |])

let test_flipped_verdict_fails () =
  let batch = [| result SB.Label.Ham_v 0.1; result SB.Label.Spam_v 0.95 |] in
  let expected = Checks.render_verdicts batch in
  let same = Checks.render_verdicts (Array.copy batch) in
  Alcotest.(check bool)
    "identical verdicts pass" true
    (Checks.compare_text ~what:"verdicts" ~expected ~got:same = Ok ());
  let flipped = Array.copy batch in
  flipped.(1) <- result SB.Label.Unsure_v 0.95;
  match
    Checks.compare_text ~what:"verdicts" ~expected
      ~got:(Checks.render_verdicts flipped)
  with
  | Ok () -> Alcotest.fail "a flipped verdict passed the check"
  | Error e ->
      Alcotest.(check bool)
        "the error names the differing line" true
        (contains e "1 unsure")

let write path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let fresh_dir name =
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  rm name;
  Sys.mkdir name 0o755;
  name

(* Two directories holding a real saved db and a second file. *)
let db_trees () =
  let f = SB.Filter.create () in
  SB.Filter.train_tokens f SB.Label.Spam [| "cheap"; "pills" |];
  SB.Filter.train_tokens f SB.Label.Ham [| "meeting"; "notes" |];
  let mk name =
    let d = fresh_dir name in
    SB.Filter.save_file f (Filename.concat d "live.db");
    Sys.mkdir (Filename.concat d "store") 0o755;
    write (Filename.concat d "store/manifest") "shards 2\n";
    d
  in
  (mk "tree-expected", mk "tree-got")

let flip_byte path i =
  let s = Bytes.of_string (Checks.read_file path) in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
  write path (Bytes.to_string s)

let test_changed_db_byte_fails () =
  let expected, got = db_trees () in
  Alcotest.(check bool)
    "equal trees pass" true
    (Checks.compare_trees ~expected ~got = Ok ());
  let db = Filename.concat got "live.db" in
  flip_byte db (String.length (Checks.read_file db) / 2);
  Alcotest.(check bool)
    "one changed db byte fails the file check" true
    (Result.is_error
       (Checks.compare_files ~expected:(Filename.concat expected "live.db") ~got:db));
  Alcotest.(check bool)
    "and the tree check" true
    (Result.is_error (Checks.compare_trees ~expected ~got))

let test_extra_file_fails () =
  let expected, got = db_trees () in
  write (Filename.concat got "store/journal-0") "";
  Alcotest.(check bool)
    "an extra file fails" true
    (Result.is_error (Checks.compare_trees ~expected ~got))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "p99 needs ten samples beyond it" `Quick
            test_tail_needs_ten_beyond;
          Alcotest.test_case "order of samples is irrelevant" `Quick
            test_latency_ignores_order;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "windowed medians",
        [ Alcotest.test_case "mean of window medians" `Quick test_windowed_median ] );
      ("stage shares", [ Alcotest.test_case "shares and remainder" `Quick test_shares ]);
      ( "output checks",
        [
          Alcotest.test_case "verdict rendering" `Quick test_render_verdicts;
          Alcotest.test_case "one flipped verdict fails" `Quick
            test_flipped_verdict_fails;
          Alcotest.test_case "one changed db byte fails" `Quick
            test_changed_db_byte_fails;
          Alcotest.test_case "an extra file fails" `Quick test_extra_file_fails;
        ] );
    ]

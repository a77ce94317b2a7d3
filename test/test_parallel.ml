(* Tests for the deterministic domain pool, and the end-to-end
   regression that experiment results do not depend on the jobs
   setting. *)

open Spamlab_parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let pool_tests =
  [
    test_case "map_array preserves order" (fun () ->
        with_pool ~jobs:4 (fun pool ->
            let input = Array.init 100 (fun i -> i) in
            let got = Pool.map_array pool (fun i -> i * i) input in
            check_bool "equals Array.map" true
              (got = Array.map (fun i -> i * i) input)));
    test_case "jobs=1 equals Array.map" (fun () ->
        with_pool ~jobs:1 (fun pool ->
            let input = Array.init 17 string_of_int in
            check_bool "identical" true
              (Pool.map_array pool String.length input
              = Array.map String.length input)));
    test_case "map_list preserves order" (fun () ->
        with_pool ~jobs:3 (fun pool ->
            check_bool "equals List.map" true
              (Pool.map_list pool succ [ 5; 1; 4; 1; 5 ]
              = [ 6; 2; 5; 2; 6 ])));
    test_case "empty and singleton inputs" (fun () ->
        with_pool ~jobs:4 (fun pool ->
            check_int "empty" 0
              (Array.length (Pool.map_array pool succ [||]));
            check_bool "singleton" true
              (Pool.map_array pool succ [| 41 |] = [| 42 |])));
    test_case "worker exception re-raised at join" (fun () ->
        with_pool ~jobs:4 (fun pool ->
            (* Several indices raise; the contract picks the lowest so
               the surfaced error does not depend on scheduling. *)
            Alcotest.check_raises "lowest raising index wins"
              (Failure "boom-3") (fun () ->
                ignore
                  (Pool.map_array pool
                     (fun i ->
                       if i >= 3 && i mod 2 = 1 then
                         failwith (Printf.sprintf "boom-%d" i);
                       i)
                     (Array.init 64 (fun i -> i))))));
    test_case "pool survives a raising map" (fun () ->
        with_pool ~jobs:4 (fun pool ->
            (try
               ignore
                 (Pool.map_array pool
                    (fun i -> if i = 0 then failwith "once" else i)
                    [| 0; 1; 2 |])
             with Failure _ -> ());
            check_bool "next map fine" true
              (Pool.map_array pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |])));
    test_case "nested use falls back sequentially" (fun () ->
        with_pool ~jobs:4 (fun pool ->
            let got =
              Pool.map_array pool
                (fun i ->
                  Array.fold_left ( + ) 0
                    (Pool.map_array pool (fun j -> (10 * i) + j)
                       [| 0; 1; 2 |]))
                (Array.init 8 (fun i -> i))
            in
            check_bool "values correct" true
              (got = Array.init 8 (fun i -> (30 * i) + 3))));
    test_case "create validates jobs" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Pool.create: jobs must be >= 1")
          (fun () -> ignore (Pool.create ~jobs:0)));
  ]

(* Task supervision: transient injected faults are retried up to 3
   attempts deterministically; fatal ones surface unmasked. *)
let supervision_tests =
  let module Fault = Spamlab_fault in
  let with_faults ?seed spec f =
    match Fault.configure ?seed spec with
    | Error e -> Alcotest.fail e
    | Ok () -> Fun.protect ~finally:Fault.disable f
  in
  [
    test_case "transient faults are retried to the same result" (fun () ->
        let input = Array.init 64 (fun i -> i) in
        let expected = Array.map (fun i -> i * i) input in
        with_faults "pool.task:transient@2+7+40" (fun () ->
            with_pool ~jobs:4 (fun pool ->
                check_bool "identical despite faults" true
                  (Pool.map_array pool (fun i -> i * i) input = expected))));
    test_case "jobs-invariant under transient faults" (fun () ->
        let input = Array.init 48 (fun i -> i) in
        let run jobs =
          with_faults "pool.task:transient@3+11" (fun () ->
              with_pool ~jobs (fun pool ->
                  Pool.map_array pool (fun i -> (2 * i) + 1) input))
        in
        check_bool "jobs 1 = jobs 4" true (run 1 = run 4));
    test_case "retries are counted" (fun () ->
        Spamlab_obs.Obs.enable_metrics ();
        Spamlab_obs.Obs.reset ();
        with_faults "pool.task:transient@2" (fun () ->
            with_pool ~jobs:2 (fun pool ->
                ignore
                  (Pool.map_array pool succ (Array.init 16 (fun i -> i)))));
        check_int "one retry recorded" 1
          (Spamlab_obs.Obs.counter_value "fault.retried"));
    test_case "persistent transient fault becomes Task_failed" (fun () ->
        (* ~1 fires on every attempt, so supervision exhausts its
           budget and surfaces a typed failure naming the site. *)
        with_faults "pool.task:transient~1" (fun () ->
            with_pool ~jobs:2 (fun pool ->
                Alcotest.check_raises "typed failure"
                  (Task_failed
                     { site = "pool.task"; attempts = 3 })
                  (fun () ->
                    ignore (Pool.map_array pool succ [| 1; 2; 3 |])))));
    test_case "fatal faults are not retried" (fun () ->
        with_faults "pool.task:fatal@1" (fun () ->
            with_pool ~jobs:2 (fun pool ->
                check_bool "Injected surfaces" true
                  (try
                     ignore (Pool.map_array pool succ [| 1; 2; 3 |]);
                     false
                   with
                  | Fault.Injected { kind = Fault.Fatal; _ } -> true
                  | Task_failed _ -> false))));
    test_case "sequential fallback retries too" (fun () ->
        (* Nested maps run on the caller; supervision must behave the
           same there as on workers. *)
        with_faults "pool.task:transient@2" (fun () ->
            with_pool ~jobs:2 (fun pool ->
                let got =
                  Pool.map_array pool
                    (fun i ->
                      Array.fold_left ( + ) 0
                        (Pool.map_array pool succ [| i; i + 1 |]))
                    [| 0; 4 |]
                in
                check_bool "values correct" true (got = [| 3; 11 |]))));
    test_case "pool survives an exhausted retry budget" (fun () ->
        with_faults "pool.task:transient~1" (fun () ->
            with_pool ~jobs:2 (fun pool ->
                (try ignore (Pool.map_array pool succ [| 1 |])
                 with Task_failed _ -> ());
                Fault.disable ();
                check_bool "next map fine" true
                  (Pool.map_array pool succ [| 1; 2 |] = [| 2; 3 |]))));
  ]

(* The one shared jobs-validation path behind --jobs, SPAMLAB_JOBS and
   Lab.create. *)
let jobs_validation_tests =
  let expected_msg got =
    Printf.sprintf "--jobs/SPAMLAB_JOBS must be a positive integer (got %s)"
      got
  in
  [
    test_case "validate_jobs accepts positives" (fun () ->
        check_bool "one" true (validate_jobs 1 = Ok 1);
        check_bool "many" true (validate_jobs 64 = Ok 64));
    test_case "validate_jobs rejects zero and negatives" (fun () ->
        check_bool "zero" true (validate_jobs 0 = Error (expected_msg "0"));
        check_bool "negative" true
          (validate_jobs (-3) = Error (expected_msg "-3")));
    test_case "parse_jobs parses and trims" (fun () ->
        check_bool "plain" true (parse_jobs "4" = Ok 4);
        check_bool "padded" true (parse_jobs " 2 " = Ok 2));
    test_case "parse_jobs rejects non-numbers with the shared message"
      (fun () ->
        check_bool "word" true
          (parse_jobs "lots" = Error (expected_msg "lots"));
        check_bool "zero" true (parse_jobs "0" = Error (expected_msg "0"));
        check_bool "empty" true
          (parse_jobs "" = Error (expected_msg "an empty string")));
    test_case "Lab.create rejects invalid jobs with the shared message"
      (fun () ->
        Alcotest.check_raises "zero jobs"
          (Invalid_argument (expected_msg "0"))
          (fun () -> ignore (Spamlab_eval.Lab.create ~jobs:0 ())));
  ]

(* End-to-end: a small Figure-1 grid must produce structurally equal
   results at jobs=1 and jobs=4 (the determinism contract of the whole
   harness, not just the pool). *)
let determinism_tests =
  [
    test_case "dictionary_exp identical at jobs=1 and jobs=4" (fun () ->
        let open Spamlab_eval in
        let params =
          {
            Params.train_size = 120;
            spam_prevalence = 0.5;
            attack_fractions = [ 0.0; 0.01; 0.05 ];
            folds = 3;
            dictionary_size = 2_000;
            usenet_size = 2_000;
          }
        in
        let run_with jobs =
          let lab = Lab.create ~seed:7 ~scale:0.05 ~jobs () in
          Fun.protect
            ~finally:(fun () -> Lab.shutdown lab)
            (fun () -> Dictionary_exp.run lab params)
        in
        check_bool "structurally equal" true (run_with 1 = run_with 4));
  ]

let () =
  Alcotest.run "spamlab_parallel"
    [
      ("pool", pool_tests); ("supervision", supervision_tests);
      ("jobs-validation", jobs_validation_tests);
      ("determinism", determinism_tests);
    ]

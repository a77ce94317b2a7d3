(* Unit and property tests for the statistics substrate. *)

open Spamlab_stats

let check_float = Alcotest.(check (float 1e-9))
let check_close tolerance = Alcotest.(check (float tolerance))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let rng_tests =
  [
    test_case "same seed, same stream" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "bits" (Rng.bits64 a) (Rng.bits64 b)
        done);
    test_case "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        check_bool "streams differ" true (Rng.bits64 a <> Rng.bits64 b));
    test_case "copy replays the stream" (fun () ->
        let a = Rng.create 99 in
        ignore (Rng.bits64 a);
        let b = Rng.copy a in
        Alcotest.(check int64) "next value equal" (Rng.bits64 a) (Rng.bits64 b));
    test_case "split diverges from parent" (fun () ->
        let a = Rng.create 5 in
        let child = Rng.split a in
        check_bool "child differs" true (Rng.bits64 child <> Rng.bits64 a));
    test_case "split_named ignores consumption position" (fun () ->
        let a = Rng.create 11 in
        let b = Rng.create 11 in
        ignore (Rng.bits64 b);
        ignore (Rng.bits64 b);
        let from_a = Rng.split_named a "x" in
        let from_b = Rng.split_named b "x" in
        Alcotest.(check int64) "same derived stream" (Rng.bits64 from_a)
          (Rng.bits64 from_b));
    test_case "split_named distinct names distinct streams" (fun () ->
        let r = Rng.create 3 in
        let a = Rng.split_named r "alpha" in
        let b = Rng.split_named r "beta" in
        check_bool "streams differ" true (Rng.bits64 a <> Rng.bits64 b));
    test_case "int rejects non-positive bound" (fun () ->
        let r = Rng.create 0 in
        Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int r 0)));
    test_case "int_in covers inclusive range" (fun () ->
        let r = Rng.create 17 in
        let seen = Array.make 5 false in
        for _ = 1 to 500 do
          seen.(Rng.int_in r 0 4) <- true
        done;
        Array.iteri (fun i s -> check_bool (string_of_int i) true s) seen);
    test_case "bernoulli extremes" (fun () ->
        let r = Rng.create 23 in
        for _ = 1 to 50 do
          check_bool "p=0" false (Rng.bernoulli r 0.0);
          check_bool "p=1" true (Rng.bernoulli r 1.0)
        done);
    test_case "sample_without_replacement distinct" (fun () ->
        let r = Rng.create 31 in
        let arr = Array.init 20 (fun i -> i) in
        let s = Rng.sample_without_replacement r 10 arr in
        check_int "length" 10 (Array.length s);
        let sorted = Array.copy s in
        Array.sort compare sorted;
        for i = 1 to 9 do
          check_bool "distinct" true (sorted.(i) <> sorted.(i - 1))
        done);
    test_case "sample_without_replacement rejects oversize" (fun () ->
        let r = Rng.create 1 in
        Alcotest.check_raises "k too big"
          (Invalid_argument "Rng.sample_without_replacement: k out of range")
          (fun () -> ignore (Rng.sample_without_replacement r 3 [| 1; 2 |])));
    test_case "choose rejects empty" (fun () ->
        let r = Rng.create 1 in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
          (fun () -> ignore (Rng.choose r ([||] : int array))));
    qtest "float in [0,1)" QCheck2.Gen.int (fun seed ->
        let r = Rng.create seed in
        let x = Rng.float r in
        x >= 0.0 && x < 1.0);
    qtest "int within bound"
      QCheck2.Gen.(pair int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create seed in
        let x = Rng.int r bound in
        x >= 0 && x < bound);
    qtest "shuffle preserves multiset"
      QCheck2.Gen.(pair int (list_size (int_range 0 50) small_int))
      (fun (seed, xs) ->
        let r = Rng.create seed in
        let arr = Array.of_list xs in
        Rng.shuffle r arr;
        List.sort compare (Array.to_list arr) = List.sort compare xs);
  ]

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)

let special_tests =
  [
    test_case "log_gamma at integers" (fun () ->
        check_close 1e-10 "ln G(1)" 0.0 (Special.log_gamma 1.0);
        check_close 1e-10 "ln G(2)" 0.0 (Special.log_gamma 2.0);
        check_close 1e-9 "ln G(5)" (log 24.0) (Special.log_gamma 5.0);
        check_close 1e-9 "ln G(11)" (log 3628800.0) (Special.log_gamma 11.0));
    test_case "log_gamma at half-integers" (fun () ->
        check_close 1e-10 "ln G(0.5)" (0.5 *. log Float.pi)
          (Special.log_gamma 0.5);
        check_close 1e-9 "ln G(1.5)" (log (0.5 *. sqrt Float.pi))
          (Special.log_gamma 1.5));
    test_case "log_gamma rejects non-positive" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Special.log_gamma: requires x > 0") (fun () ->
            ignore (Special.log_gamma 0.0)));
    test_case "gamma_p + gamma_q = 1" (fun () ->
        List.iter
          (fun (a, x) ->
            check_close 1e-10 "sum" 1.0
              (Special.gamma_p a x +. Special.gamma_q a x))
          [ (0.5, 0.3); (1.0, 1.0); (2.5, 4.0); (10.0, 3.0); (75.0, 80.0) ]);
    test_case "gamma_p boundary values" (fun () ->
        check_float "P(a,0)=0" 0.0 (Special.gamma_p 2.0 0.0);
        check_float "Q(a,0)=1" 1.0 (Special.gamma_q 2.0 0.0);
        check_close 1e-9 "P(1,x)=1-e^-x" (1.0 -. exp (-2.0))
          (Special.gamma_p 1.0 2.0));
    test_case "chi2 df=2 matches closed form" (fun () ->
        List.iter
          (fun x ->
            check_close 1e-10 "sf" (exp (-.x /. 2.0))
              (Special.chi2_sf ~df:2 x))
          [ 0.1; 1.0; 3.0; 10.0; 40.0 ]);
    test_case "chi2 df=4 closed form" (fun () ->
        (* SF_4(x) = e^{-x/2}(1 + x/2) *)
        List.iter
          (fun x ->
            check_close 1e-10 "sf"
              (exp (-.x /. 2.0) *. (1.0 +. (x /. 2.0)))
              (Special.chi2_sf ~df:4 x))
          [ 0.5; 2.0; 8.0 ]);
    test_case "chi2 median near df" (fun () ->
        (* median of chi2_k is about k(1 - 2/(9k))^3 *)
        let df = 10 in
        let median =
          float_of_int df
          *. ((1.0 -. (2.0 /. (9.0 *. float_of_int df))) ** 3.0)
        in
        check_close 1e-3 "sf at median" 0.5 (Special.chi2_sf ~df median));
    test_case "chi2 negative x" (fun () ->
        check_float "sf" 1.0 (Special.chi2_sf ~df:3 (-1.0)));
    test_case "chi2 rejects df<=0" (fun () ->
        Alcotest.check_raises "df 0"
          (Invalid_argument "Special.chi2_sf: requires df > 0") (fun () ->
            ignore (Special.chi2_sf ~df:0 1.0)));
    test_case "chi2 monotone in x" (fun () ->
        let prev = ref 2.0 in
        for i = 0 to 50 do
          let x = float_of_int i *. 0.7 in
          let c = Special.chi2_sf ~df:7 x in
          check_bool "non-increasing" true (c <= !prev);
          prev := c
        done);
    test_case "chi2_sf keeps its bits on a (df, x) grid" (fun () ->
        (* The values the recursive series gave, as hex literals: the
           loop form must do the same float operations in the same
           order. *)
        List.iter
          (fun (df, x, want) ->
            Alcotest.(check int64)
              (Printf.sprintf "chi2_sf ~df:%d %h" df x)
              (Int64.bits_of_float want)
              (Int64.bits_of_float (Special.chi2_sf ~df x)))
          [
            (2, 0x1p-1, 0x1.8ebef9eac820ap-1);
            (2, 0x1p+0, 0x1.368b2fc6f9608p-1);
            (2, 0x1.d99999999999ap+1, 0x1.42058f38430dp-3);
            (2, 0x1.4p+3, 0x1.b993fe00d537fp-8);
            (2, 0x1.d8p+4, 0x1.a5c04a7fea8d6p-22);
            (2, 0x1.ep+5, 0x1.a56e0c2ac7f6cp-44);
            (2, 0x1.2cp+7, 0x1.bd109d9d94bf5p-109);
            (2, 0x1.a4p+8, 0x1.061cc1b09e653p-303);
            (2, 0x1.9p+9, 0x1.e50c483c04d4ap-578);
            (2, 0x1.f4p+10, 0x0p+0);
            (4, 0x1p-1, 0x1.f26eb8657a28ep-1);
            (4, 0x1p+0, 0x1.d1d0c7aa7610fp-1);
            (4, 0x1.d99999999999ap+1, 0x1.cae185b02c5bcp-2);
            (4, 0x1.4p+3, 0x1.4b2efe809fe97p-5);
            (4, 0x1.d8p+4, 0x1.9f294955eae3ap-18);
            (4, 0x1.ep+5, 0x1.98429bc971b81p-39);
            (4, 0x1.2cp+7, 0x1.0841dd9590528p-102);
            (4, 0x1.a4p+8, 0x1.b013674925197p-296);
            (4, 0x1.9p+9, 0x1.7be41e9301d9dp-569);
            (4, 0x1.f4p+10, 0x0p+0);
            (10, 0x1p-1, 0x1.ffff2225d6b7ap-1);
            (10, 0x1p+0, 0x1.ffe970c1ff154p-1);
            (10, 0x1.d99999999999ap+1, 0x1.eb73be44aa086p-1);
            (10, 0x1.4p+3, 0x1.c310abf5d9cb4p-2);
            (10, 0x1.d8p+4, 0x1.0ef77ebbd4601p-10);
            (10, 0x1.ep+5, 0x1.f21ec0d598f77p-29);
            (10, 0x1.2cp+7, 0x1.275260f10f1a5p-88);
            (10, 0x1.a4p+8, 0x1.429d883d0c16bp-277);
            (10, 0x1.9p+9, 0x1.e6b4eb1023896p-548);
            (10, 0x1.f4p+10, 0x0p+0);
            (30, 0x1p-1, 0x1p+0);
            (30, 0x1p+0, 0x1p+0);
            (30, 0x1.d99999999999ap+1, 0x1.fffffff420819p-1);
            (30, 0x1.4p+3, 0x1.ffe2582fb86eep-1);
            (30, 0x1.d8p+4, 0x1.f74160ce7421p-2);
            (30, 0x1.ep+5, 0x1.e2b3e6406ed91p-11);
            (30, 0x1.2cp+7, 0x1.eee2c04ef804ep-58);
            (30, 0x1.a4p+8, 0x1.ba694b4d4787fp-232);
            (30, 0x1.9p+9, 0x1.9009201415c4cp-493);
            (30, 0x1.f4p+10, 0x0p+0);
            (100, 0x1p-1, 0x1p+0);
            (100, 0x1p+0, 0x1p+0);
            (100, 0x1.d99999999999ap+1, 0x1p+0);
            (100, 0x1.4p+3, 0x1p+0);
            (100, 0x1.d8p+4, 0x1.fffffffffee76p-1);
            (100, 0x1.ep+5, 0x1.ffbbfce446bfep-1);
            (100, 0x1.2cp+7, 0x1.d9ebb47a4ce7cp-11);
            (100, 0x1.a4p+8, 0x1.ccf0c6abce57cp-134);
            (100, 0x1.9p+9, 0x1.115a02e2f0dc8p-362);
            (100, 0x1.f4p+10, 0x0p+0);
            (300, 0x1p-1, 0x1p+0);
            (300, 0x1p+0, 0x1p+0);
            (300, 0x1.d99999999999ap+1, 0x1p+0);
            (300, 0x1.4p+3, 0x1p+0);
            (300, 0x1.d8p+4, 0x1p+0);
            (300, 0x1.ep+5, 0x1p+0);
            (300, 0x1.2cp+7, 0x1.fffffffffff69p-1);
            (300, 0x1.a4p+8, 0x1.78de2c4c6f087p-18);
            (300, 0x1.9p+9, 0x1.dbffc6f825a1p-155);
            (300, 0x1.f4p+10, 0x1.c0633f7c2ecdep-824);
          ]);
    qtest "gamma_p in [0,1]"
      QCheck2.Gen.(pair (float_range 0.01 50.0) (float_range 0.0 100.0))
      (fun (a, x) ->
        let p = Special.gamma_p a x in
        p >= 0.0 && p <= 1.0);
  ]

(* ------------------------------------------------------------------ *)
(* Fisher                                                              *)

(* [Fisher.indicator] folds over an array prefix; the list-typed
   statistic/combine/H/S it replaced live on in the oracle, which the
   first tests below pin and the last property ties the fold to. *)
module Ref_fisher = Spamlab_oracle.Fisher

let indicator_of_list fs = Fisher.indicator (Array.of_list fs) (List.length fs)

let fisher_tests =
  [
    test_case "statistic of all-ones is ~0" (fun () ->
        check_close 1e-6 "stat" 0.0 (Ref_fisher.statistic [ 1.0; 1.0; 1.0 ]));
    test_case "statistic rejects empty" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Fisher.statistic: empty p-value list") (fun () ->
            ignore (Ref_fisher.statistic [])));
    test_case "statistic rejects out-of-range" (fun () ->
        Alcotest.check_raises "p>1"
          (Invalid_argument "Fisher.statistic: p-value outside [0,1]")
          (fun () -> ignore (Ref_fisher.statistic [ 1.5 ]));
        Alcotest.check_raises "array fold, p>1"
          (Invalid_argument "Fisher.indicator: p-value outside [0,1]")
          (fun () -> ignore (Fisher.indicator [| 0.5; 1.5 |] 2));
        Alcotest.check_raises "array fold, p<0 in the complement pass"
          (Invalid_argument "Fisher.indicator: p-value outside [0,1]")
          (fun () -> ignore (Fisher.indicator [| -0.5 |] 1)));
    test_case "statistic finite at p=0 (clamped)" (fun () ->
        check_bool "finite" true (Float.is_finite (Ref_fisher.statistic [ 0.0 ]));
        let i = Fisher.indicator [| 0.0; 1.0 |] 2 in
        check_bool "array fold finite" true (Float.is_finite i && i >= 0.0 && i <= 1.0));
    test_case "combine of strong evidence is small" (fun () ->
        check_bool "small" true (Ref_fisher.combine [ 1e-6; 1e-6; 1e-6 ] < 1e-6));
    test_case "combine of weak evidence is large" (fun () ->
        check_bool "large" true (Ref_fisher.combine [ 0.9; 0.8; 0.95 ] > 0.5));
    test_case "single p-value roundtrips through chi2" (fun () ->
        (* combine [p] = SF(-2 ln p, 2) = exp(ln p) = p *)
        List.iter
          (fun p -> check_close 1e-9 "identity" p (Ref_fisher.combine [ p ]))
          [ 0.05; 0.2; 0.5; 0.9 ]);
    test_case "empty H and S are 1" (fun () ->
        check_float "H" 1.0 (Ref_fisher.spambayes_h []);
        check_float "S" 1.0 (Ref_fisher.spambayes_s []);
        (* (1 + H - S) / 2 with both at 1: the array fold's empty prefix. *)
        check_float "empty prefix" 0.5 (Fisher.indicator [| 0.99 |] 0));
    test_case "indicator extremes" (fun () ->
        check_bool "spammy" true
          (indicator_of_list [ 0.99; 0.99; 0.99; 0.99 ] > 0.95);
        check_bool "hammy" true
          (indicator_of_list [ 0.01; 0.01; 0.01; 0.01 ] < 0.05));
    test_case "indicator of neutral scores is 0.5" (fun () ->
        check_close 1e-9 "neutral" 0.5 (indicator_of_list [ 0.5; 0.5; 0.5 ]));
    qtest "indicator in [0,1]"
      QCheck2.Gen.(list_size (int_range 1 40) (float_range 0.001 0.999))
      (fun fs ->
        let i = indicator_of_list fs in
        i >= 0.0 && i <= 1.0);
    qtest "indicator symmetric under complement"
      QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.01 0.99))
      (fun fs ->
        let i = indicator_of_list fs in
        let i' = indicator_of_list (List.map (fun f -> 1.0 -. f) fs) in
        Float.abs (i +. i' -. 1.0) < 1e-9);
    qtest "indicator monotone in each score"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 15) (float_range 0.05 0.9))
          (float_range 0.0 0.09))
      (fun (fs, bump) ->
        (* Raising the first token score never lowers I (the Section 3.4
           monotonicity observation). *)
        match fs with
        | [] -> true
        | f :: rest ->
            indicator_of_list ((f +. bump) :: rest)
            >= indicator_of_list (f :: rest) -. 1e-12);
    test_case "array fold rejects a prefix beyond the array" (fun () ->
        List.iter
          (fun n ->
            Alcotest.check_raises "prefix"
              (Invalid_argument "Fisher.indicator: prefix length out of bounds")
              (fun () -> ignore (Fisher.indicator [| 0.5; 0.5 |] n)))
          [ -1; 3 ]);
    qtest "array fold equals the list oracle bit for bit"
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 160)
             (oneof
                [ float_range 0.0 1.0; oneofl [ 0.0; 1.0; 0.5; 1e-13; 0.4; 0.6 ] ]))
          (int_range 0 5))
      (fun (fs, slack) ->
        (* A longer backing array than the prefix: the fold must stop
           at n. *)
        let n = List.length fs in
        let arr = Array.append (Array.of_list fs) (Array.make slack 0.25) in
        let want = if fs = [] then 0.5 else Ref_fisher.indicator fs in
        Int64.equal
          (Int64.bits_of_float (Fisher.indicator arr n))
          (Int64.bits_of_float want));
    test_case "the fold allocates the same for 150 scores as for 1" (fun () ->
        (* Neither the clamp nor the chi-square series may box a float
           per score or per series term.  The least of five runs, each
           from an empty minor heap. *)
        let scores = Array.init 150 (fun i -> float_of_int ((i * 37) mod 101) /. 101.0) in
        let allocated n =
          List.fold_left min infinity
            (List.init 5 (fun _ ->
                 Gc.minor ();
                 let before = Gc.minor_words () in
                 ignore (Sys.opaque_identity (Fisher.indicator scores n));
                 Gc.minor_words () -. before))
        in
        Alcotest.(check (float 0.)) "minor words for 1 and 150 scores" (allocated 1)
          (allocated 150));
  ]

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)

let sampler_tests =
  [
    test_case "categorical rejects bad weights" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Sampler.categorical: empty weights") (fun () ->
            ignore (Sampler.categorical [||]));
        Alcotest.check_raises "negative"
          (Invalid_argument "Sampler.categorical: negative or non-finite weight")
          (fun () -> ignore (Sampler.categorical [| 1.0; -1.0 |]));
        Alcotest.check_raises "zero sum"
          (Invalid_argument
             "Sampler.categorical: weights must sum to a positive finite")
          (fun () -> ignore (Sampler.categorical [| 0.0; 0.0 |])));
    test_case "categorical_prob normalizes" (fun () ->
        let c = Sampler.categorical [| 2.0; 6.0 |] in
        check_close 1e-12 "p0" 0.25 (Sampler.categorical_prob c 0);
        check_close 1e-12 "p1" 0.75 (Sampler.categorical_prob c 1));
    test_case "categorical draw matches weights" (fun () ->
        let c = Sampler.categorical [| 1.0; 3.0 |] in
        let rng = Rng.create 123 in
        let n = 20_000 in
        let ones = ref 0 in
        for _ = 1 to n do
          if Sampler.categorical_draw c rng = 1 then incr ones
        done;
        let freq = float_of_int !ones /. float_of_int n in
        check_bool "within 2%" true (Float.abs (freq -. 0.75) < 0.02));
    test_case "categorical draw over degenerate distribution" (fun () ->
        let c = Sampler.categorical [| 0.0; 1.0; 0.0 |] in
        let rng = Rng.create 5 in
        for _ = 1 to 100 do
          check_int "always 1" 1 (Sampler.categorical_draw c rng)
        done);
    test_case "zipf rank 0 is most frequent" (fun () ->
        let z = Sampler.zipf 100 in
        check_bool "p0 > p1" true
          (Sampler.categorical_prob z 0 > Sampler.categorical_prob z 1);
        check_bool "p1 > p50" true
          (Sampler.categorical_prob z 1 > Sampler.categorical_prob z 50));
    test_case "zipf rejects bad arguments" (fun () ->
        Alcotest.check_raises "n=0"
          (Invalid_argument "Sampler.zipf: n must be positive") (fun () ->
            ignore (Sampler.zipf 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Summary + Histogram                                                 *)

let summary_tests =
  [
    test_case "mean and variance" (fun () ->
        let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
        check_float "mean" 2.5 (Summary.mean xs);
        check_close 1e-12 "variance" (5.0 /. 3.0) (Summary.std_dev xs ** 2.0);
        check_float "single variance" 0.0 (Summary.std_dev [| 5.0 |]));
    test_case "empty arrays rejected" (fun () ->
        Alcotest.check_raises "mean"
          (Invalid_argument "Summary.mean: empty array") (fun () ->
            ignore (Summary.mean [||])));
    test_case "median odd and even" (fun () ->
        check_float "odd" 3.0 (Summary.median [| 5.0; 1.0; 3.0 |]);
        check_float "even" 2.5 (Summary.median [| 4.0; 1.0; 2.0; 3.0 |]));
    test_case "quantile endpoints" (fun () ->
        let xs = [| 9.0; 1.0; 5.0 |] in
        check_float "q0" 1.0 (Summary.quantile xs 0.0);
        check_float "q1" 9.0 (Summary.quantile xs 1.0);
        check_float "q0.5" 5.0 (Summary.quantile xs 0.5));
    test_case "quantile interpolates" (fun () ->
        check_float "q0.25" 1.5 (Summary.quantile [| 1.0; 2.0; 3.0 |] 0.25));
    test_case "min_max" (fun () ->
        let lo, hi = Summary.min_max [| 3.0; -1.0; 7.0 |] in
        check_float "lo" (-1.0) lo;
        check_float "hi" 7.0 hi);
    qtest "quantile between min and max"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 40) (float_range (-50.) 50.))
          (float_range 0.0 1.0))
      (fun (xs, q) ->
        let arr = Array.of_list xs in
        let lo, hi = Summary.min_max arr in
        let v = Summary.quantile arr q in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
  ]

(* [(lo, hi, count)] of each bin, read back from its rendered line. *)
let rendered_bins h =
  String.split_on_char '\n' (Histogram.render h)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         Scanf.sscanf l " %f.. %f | %[#] %d" (fun lo hi _ n -> (lo, hi, n)))

let rendered_counts h = List.map (fun (_, _, n) -> n) (rendered_bins h)

let histogram_tests =
  [
    test_case "counts land in bins" (fun () ->
        let h = Histogram.create ~bins:4 ~lo:0.0 ~hi:4.0 () in
        Array.iter (Histogram.add h) [| 0.5; 1.5; 1.6; 3.9 |];
        Alcotest.(check (list int)) "per bin" [ 1; 2; 0; 1 ] (rendered_counts h));
    test_case "out-of-range clamps to edges" (fun () ->
        let h = Histogram.create ~bins:2 ~lo:0.0 ~hi:1.0 () in
        Histogram.add h (-5.0);
        Histogram.add h 5.0;
        Alcotest.(check (list int)) "edges" [ 1; 1 ] (rendered_counts h));
    test_case "edges" (fun () ->
        let h = Histogram.create ~bins:2 ~lo:0.0 ~hi:1.0 () in
        let lo, hi, _ = List.nth (rendered_bins h) 1 in
        check_float "lo" 0.5 lo;
        check_float "hi" 1.0 hi);
    test_case "invalid construction" (fun () ->
        Alcotest.check_raises "bins 0"
          (Invalid_argument "Histogram.create: bins must be positive")
          (fun () -> ignore (Histogram.create ~bins:0 ~lo:0.0 ~hi:1.0 ()));
        Alcotest.check_raises "hi<=lo"
          (Invalid_argument "Histogram.create: hi must exceed lo") (fun () ->
            ignore (Histogram.create ~lo:1.0 ~hi:1.0 ())));
    test_case "render has one line per bin" (fun () ->
        let h = Histogram.create ~bins:5 ~lo:0.0 ~hi:1.0 () in
        Histogram.add h 0.3;
        let lines =
          String.split_on_char '\n' (Histogram.render h)
          |> List.filter (fun l -> l <> "")
        in
        check_int "lines" 5 (List.length lines));
  ]

let () =
  Alcotest.run "stats"
    [
      ("rng", rng_tests);
      ("special", special_tests);
      ("fisher", fisher_tests);
      ("sampler", sampler_tests);
      ("summary", summary_tests);
      ("histogram", histogram_tests);
    ]

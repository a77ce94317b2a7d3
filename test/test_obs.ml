(* Tests for the observability layer: counter/span bookkeeping, the
   JSONL trace sink (validated with a small hand-rolled checker — the
   emitter must not be trusted to check itself), and the contract that
   aggregate counters are invariant under the jobs setting. *)

module Obs = Spamlab_obs.Obs
module Json = Spamlab_obs.Json
open Spamlab_parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f

(* Every test that enables observability must disable it again, or the
   global flags leak into later tests. *)
let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.stop ();
      Obs.reset ())
    f

(* How many times span [name] closed, as the metrics dump reports it. *)
let dumped_span_count name =
  let path = Filename.temp_file "spamlab-metrics" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path Obs.dump_metrics;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line " %s %d" (fun n count ->
                 if n = name then Some count else None)
             |> Option.join)
      |> Option.value ~default:0)

let with_trace f =
  let path = Filename.temp_file "spamlab-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_obs (fun () ->
          Obs.start_trace ~path;
          f ());
      In_channel.with_open_text path In_channel.input_lines)

(* ------------------------------------------------------------------ *)
(* A minimal JSON object scanner: validates one flat JSONL object of
   string/number fields and returns its key/value pairs (numbers as
   strings).  Fails on anything the trace format does not emit. *)

let parse_flat_json line =
  let n = String.length line in
  let fail msg = Alcotest.failf "%s in line %S" msg line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C at %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start then fail "expected a number";
    String.sub line start (!pos - start)
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let key = parse_string () in
    expect ':';
    let value =
      match peek () with Some '"' -> parse_string () | _ -> parse_number ()
    in
    fields := (key, value) :: !fields;
    match peek () with
    | Some ',' ->
        advance ();
        members ()
    | _ -> ()
  in
  if peek () <> Some '}' then members ();
  expect '}';
  if !pos <> n then fail "trailing garbage";
  List.rev !fields

let field key fields =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" key

(* ------------------------------------------------------------------ *)

let counter_tests =
  [
    test_case "counters are inert when disabled" (fun () ->
        Obs.reset ();
        let c = Obs.counter "test.inert" in
        Obs.add c 5;
        Obs.incr c;
        check_int "stays zero" 0 (Obs.counter_value "test.inert"));
    test_case "counters accumulate when enabled" (fun () ->
        with_obs (fun () ->
            Obs.enable_metrics ();
            let c = Obs.counter "test.accum" in
            Obs.add c 5;
            Obs.incr c;
            check_int "summed" 6 (Obs.counter_value "test.accum"));
        Obs.reset ());
    test_case "snapshot omits zero counters and sorts" (fun () ->
        with_obs (fun () ->
            Obs.enable_metrics ();
            ignore (Obs.counter "test.zero");
            Obs.add (Obs.counter "test.b") 2;
            Obs.add (Obs.counter "test.a") 1;
            let snap =
              List.filter
                (fun (name, _) -> String.length name >= 5
                                  && String.sub name 0 5 = "test.")
                (Obs.counters_snapshot ())
            in
            check_bool "sorted, no zeros" true
              (snap = [ ("test.a", 1); ("test.b", 2) ]));
        Obs.reset ());
    test_case "span is a pass-through when disabled" (fun () ->
        Obs.reset ();
        check_int "result" 42 (Obs.span "test.span" (fun () -> 42));
        check_int "not recorded" 0 (dumped_span_count "test.span"));
    test_case "span records count and re-raises" (fun () ->
        with_obs (fun () ->
            Obs.enable_metrics ();
            ignore (Obs.span "test.span" (fun () -> 1));
            check_bool "exception propagates" true
              (try
                 ignore (Obs.span "test.span" (fun () -> failwith "boom"));
                 false
               with Failure _ -> true);
            check_int "both recorded" 2 (dumped_span_count "test.span"));
        Obs.reset ());
  ]

(* ------------------------------------------------------------------ *)

let trace_tests =
  [
    test_case "trace is valid JSONL with balanced spans" (fun () ->
        let lines =
          with_trace (fun () ->
              let c = Obs.counter "test.trace.work" in
              ignore
                (Obs.span "outer" (fun () ->
                     Obs.add c 3;
                     Obs.span "inner" (fun () -> 7))))
        in
        check_bool "non-empty" true (lines <> []);
        let parsed = List.map parse_flat_json lines in
        (* First line is the meta header. *)
        (match parsed with
        | meta :: _ ->
            check_str "meta" "meta" (field "ev" meta);
            check_str "format" "spamlab-trace" (field "format" meta)
        | [] -> Alcotest.fail "empty trace");
        let opens = Hashtbl.create 8 in
        let closes = Hashtbl.create 8 in
        List.iter
          (fun fields ->
            match field "ev" fields with
            | "span_open" -> Hashtbl.replace opens (field "id" fields) fields
            | "span_close" -> Hashtbl.replace closes (field "id" fields) fields
            | "meta" | "counter" -> ()
            | ev -> Alcotest.failf "unknown event %S" ev)
          parsed;
        check_int "two spans" 2 (Hashtbl.length opens);
        check_int "balanced" (Hashtbl.length opens) (Hashtbl.length closes);
        Hashtbl.iter
          (fun id o ->
            match Hashtbl.find_opt closes id with
            | None -> Alcotest.failf "span id %s never closed" id
            | Some c ->
                check_str "names match" (field "name" o) (field "name" c);
                check_bool "duration non-negative" true
                  (int_of_string (field "dur_ns" c) >= 0))
          opens;
        (* Counters are flushed as events on stop. *)
        check_bool "counter event present" true
          (List.exists
             (fun fields ->
               field "ev" fields = "counter"
               && field "name" fields = "test.trace.work"
               && field "value" fields = "3")
             parsed);
        Obs.reset ());
    test_case "escape_string survives adversarial tokens" (fun () ->
        let nasty = "a\"b\\c\td\ne\rf\x01g" in
        let line = Json.line [ Json.str "token" nasty ] in
        let fields = parse_flat_json line in
        (* The validator unescapes simple escapes; \u escapes are checked
           for shape above, so compare the printable skeleton. *)
        check_bool "round-trips through the validator" true
          (String.length (field "token" fields) > 0));
    test_case "start_trace twice is refused" (fun () ->
        let path = Filename.temp_file "spamlab-trace" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            with_obs (fun () ->
                Obs.start_trace ~path;
                check_bool "second sink refused" true
                  (try
                     Obs.start_trace ~path;
                     false
                   with Invalid_argument _ -> true));
            Obs.reset ()));
  ]

(* ------------------------------------------------------------------ *)
(* The acceptance contract: experiment-layer counters are identical at
   every jobs setting.  Runs the poisoning sweep (the counter-bearing
   hot path) under pools of different widths over identical inputs. *)

let counted_work pool =
  let inputs = Array.init 16 (fun i -> i) in
  let c = Obs.counter "test.invariant.items" in
  ignore
    (Pool.map_array pool
       (fun i ->
         Obs.add c (1 + (i mod 3));
         i)
       inputs)

let invariance_tests =
  [
    test_case "counters identical at jobs=1 and jobs=4" (fun () ->
        let totals =
          List.map
            (fun jobs ->
              with_obs (fun () ->
                  Obs.enable_metrics ();
                  let pool = Pool.create ~jobs in
                  Fun.protect
                    ~finally:(fun () -> Pool.shutdown pool)
                    (fun () -> counted_work pool);
                  let v = Obs.counter_value "test.invariant.items" in
                  Obs.reset ();
                  v))
            [ 1; 4 ]
        in
        match totals with
        | [ at1; at4 ] ->
            check_bool "non-trivial" true (at1 > 0);
            check_int "invariant" at1 at4
        | _ -> assert false);
    test_case "eval counters invariant across jobs for a real sweep"
      (fun () ->
        let run_sweep jobs =
          with_obs (fun () ->
              Obs.enable_metrics ();
              let lab =
                Spamlab_eval.Lab.create ~seed:7 ~scale:0.02 ~jobs ()
              in
              Fun.protect
                ~finally:(fun () -> Spamlab_eval.Lab.shutdown lab)
                (fun () ->
                  ignore
                    (Spamlab_eval.Dictionary_exp.run lab
                       (Spamlab_eval.Params.dictionary ~scale:0.02 ())));
              let messages = Obs.counter_value "eval.messages_classified" in
              let tokens = Obs.counter_value "eval.tokens_scored" in
              Obs.reset ();
              (messages, tokens))
        in
        let m1, t1 = run_sweep 1 in
        let m2, t2 = run_sweep 3 in
        check_bool "messages counted" true (m1 > 0);
        check_bool "tokens counted" true (t1 > 0);
        check_int "messages invariant" m1 m2;
        check_int "tokens invariant" t1 t2);
  ]

(* ------------------------------------------------------------------ *)
(* The metrics registry                                                *)

module Metrics = Spamlab_obs.Metrics

let histogram_of samples =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  List.iter (Metrics.observe h) samples;
  h

let registry_tests =
  [
    test_case "bucket i holds 2^(i-1) <= us < 2^i; 0 and below go in bucket 0"
      (fun () ->
        (* Beside one far larger sample, the median is the upper bound of
           the small sample's bucket. *)
        List.iter
          (fun (us, upper) ->
            check_int (string_of_int us) upper
              (Metrics.quantile (histogram_of [ us; 1 lsl 40 ]) 0.5))
          [
            (-3, 0); (0, 0); (1, 1); (2, 3); (3, 3); (4, 7); (7, 7); (8, 15);
            (1000, 1023); (1023, 1023); (1024, 2047);
          ]);
    test_case "quantiles are bucket upper bounds capped at the max" (fun () ->
        let h = histogram_of [ 5 ] in
        check_int "p50 of one sample" 5 (Metrics.quantile h 0.5);
        let h = histogram_of (List.init 98 (fun _ -> 1) @ [ 1000; 1000 ]) in
        check_int "p50" 1 (Metrics.quantile h 0.5);
        check_int "p98" 1 (Metrics.quantile h 0.98);
        check_int "p99 is the max, not 1023" 1000 (Metrics.quantile h 0.99);
        let h = histogram_of [ 100; 300 ] in
        check_int "p100 is capped at the max" 300 (Metrics.quantile h 1.0));
    test_case "an empty histogram reads 0 and renders nothing" (fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "latency.empty" in
        check_int "p50" 0 (Metrics.quantile h 0.5);
        check_int "p99" 0 (Metrics.quantile h 0.99);
        check_int "count" 0 (Metrics.value r "latency.empty");
        check_str "render" "" (Metrics.render [ r ]));
    test_case "two registries never share a count" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.add (Metrics.counter a "shared.name") 3;
        Metrics.observe (Metrics.histogram a "shared.hist") 10;
        check_int "a's counter" 3 (Metrics.value a "shared.name");
        check_int "b's counter, unregistered" 0 (Metrics.value b "shared.name");
        ignore (Metrics.counter b "shared.name");
        check_int "b's counter, registered" 0 (Metrics.value b "shared.name");
        check_int "b's histogram" 0
          (Metrics.quantile (Metrics.histogram b "shared.hist") 0.5);
        check_int "the Obs registry" 0 (Obs.counter_value "shared.name"));
    test_case "render: deterministic section first, each in name order"
      (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.add (Metrics.counter a "m.count") 2;
        Metrics.gauge a "b.gauge" (fun () -> 7);
        Metrics.observe (Metrics.histogram a ~deterministic:false "c.lat") 5;
        ignore (Metrics.counter b ~deterministic:false "a.wall");
        ignore (Metrics.counter b "z.count");
        check_str "payload"
          "b.gauge 7\nm.count 2\nz.count 0\na.wall 0\n\
           c.lat count=1 p50us<=5 p99us<=5 maxus=5\n"
          (Metrics.render [ a; b ]));
    test_case "updates from several domains neither race nor allocate"
      (fun () ->
        let r = Metrics.create () in
        let n = 10_000 in
        let work () =
          for i = 1 to n do
            Metrics.add (Metrics.counter r "c") 1;
            Metrics.observe (Metrics.histogram r "h") i
          done
        in
        ignore (Metrics.counter r "c");
        ignore (Metrics.histogram r "h");
        let before = Gc.minor_words () in
        work ();
        let words = Gc.minor_words () -. before in
        check_bool (Printf.sprintf "%.0f minor words" words) true (words < 64.);
        let d = Domain.spawn work in
        work ();
        Domain.join d;
        check_int "counter" (3 * n) (Metrics.value r "c");
        check_int "samples" (3 * n) (Metrics.value r "h");
        check_int "max" n (Metrics.quantile (Metrics.histogram r "h") 1.0));
  ]

let () =
  Alcotest.run "spamlab_obs"
    [
      ("counters", counter_tests); ("trace", trace_tests);
      ("jobs-invariance", invariance_tests); ("registry", registry_tests);
    ]

(* Tests for the deterministic fault-injection registry: spec parsing,
   occurrence and probability selectors, determinism in the seed, and
   the disabled-path no-op contract. *)

open Spamlab_fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

(* Every test leaves the registry disarmed, whatever happens inside. *)
let armed spec f =
  match configure spec with
  | Error e -> Alcotest.fail e
  | Ok () -> Fun.protect ~finally:disable f

(* Run [n] checks of [site], returning the 1-based occurrences that
   raised. *)
let firing_occurrences site n =
  let fired = ref [] in
  for i = 1 to n do
    match check site with
    | () -> ()
    | exception Injected { occurrence; _ } ->
        check_int "occurrence matches call number" i occurrence;
        fired := i :: !fired
  done;
  List.rev !fired

let parse_tests =
  [
    test_case "well-formed specs parse" (fun () ->
        List.iter
          (fun spec ->
            match configure spec with
            | Ok () -> disable ()
            | Error e -> Alcotest.fail (spec ^ ": " ^ e))
          [
            "pool.task:transient@1";
            "pool.task:transient@2+7+100";
            "db.save.write:crash@1";
            "pool.task:fatal~0.25";
            "a:transient@1,b:fatal@2,c:crash@3";
          ]);
    test_case "empty spec disarms" (fun () ->
        armed "pool.task:transient@1" (fun () ->
            check_bool "armed" true (firing_occurrences "pool.task" 1 = [ 1 ]));
        check_bool "disarmed after disable" true
          (firing_occurrences "pool.task" 1 = []);
        check_bool "empty spec ok" true (configure "" = Ok ());
        check_bool "still disarmed" true (firing_occurrences "pool.task" 1 = []));
    test_case "malformed specs are rejected with the grammar" (fun () ->
        List.iter
          (fun spec ->
            match configure spec with
            | Ok () ->
                disable ();
                Alcotest.fail (spec ^ ": expected an error")
            | Error e ->
                check_bool
                  (spec ^ ": error cites the grammar")
                  true
                  (let sub = "site:kind" in
                   let n = String.length e and m = String.length sub in
                   let rec scan i =
                     i + m <= n && (String.sub e i m = sub || scan (i + 1))
                   in
                   scan 0))
          [
            "no-colon";
            ":transient@1";
            "site:@1";
            "site:maybe@1";
            "site:transient";
            "site:transient@";
            "site:transient@zero";
            "site:transient@0";
            "site:transient@-2";
            "site:transient~";
            "site:transient~1.5";
            "site:transient~nope";
          ]);
    test_case "configure_env with variable unset is Ok" (fun () ->
        (* The suite runs without SPAMLAB_FAULTS set. *)
        check_bool "unset" true (Sys.getenv_opt "SPAMLAB_FAULTS" = None);
        check_bool "ok" true (configure_env () = Ok ());
        check_bool "disarmed" true (firing_occurrences "pool.task" 1 = []));
  ]

let selector_tests =
  [
    test_case "disabled check is a no-op at any site" (fun () ->
        disable ();
        for _ = 1 to 100 do
          check "pool.task";
          check "never.configured"
        done);
    test_case "occurrence selector fires exactly the named hits" (fun () ->
        armed "pool.task:transient@2+5" (fun () ->
            check_bool "fires 2 and 5" true
              (firing_occurrences "pool.task" 10 = [ 2; 5 ])));
    test_case "unnamed sites never fire" (fun () ->
        armed "pool.task:transient@1" (fun () ->
            check_bool "other site silent" true
              (firing_occurrences "db.save.write" 10 = [])));
    test_case "kinds are carried on the exception" (fun () ->
        armed "s:transient@1" (fun () ->
            match check "s" with
            | () -> Alcotest.fail "expected Injected"
            | exception (Injected { kind; _ } as exn) ->
                check_bool "transient kind" true (kind = Transient);
                check_bool "is_transient" true (is_transient exn));
        armed "s:fatal@1" (fun () ->
            match check "s" with
            | () -> Alcotest.fail "expected Injected"
            | exception (Injected { kind; _ } as exn) ->
                check_bool "fatal kind" true (kind = Fatal);
                check_bool "fatal not transient" false (is_transient exn)));
    test_case "is_transient rejects foreign exceptions" (fun () ->
        check_bool "failure" false (is_transient (Failure "x")));
    test_case "reconfigure resets occurrence counters" (fun () ->
        armed "s:transient@1" (fun () ->
            check_bool "first run fires at 1" true
              (firing_occurrences "s" 3 = [ 1 ]));
        armed "s:transient@1" (fun () ->
            check_bool "fresh counter fires at 1 again" true
              (firing_occurrences "s" 3 = [ 1 ])));
    test_case "probability selector is deterministic in the seed" (fun () ->
        let run seed =
          match configure ~seed "s:transient~0.3" with
          | Error e -> Alcotest.fail e
          | Ok () ->
              Fun.protect ~finally:disable (fun () ->
                  firing_occurrences "s" 200)
        in
        let a = run 42 and b = run 42 and c = run 43 in
        check_bool "same seed, same firings" true (a = b);
        check_bool "some firings at p=0.3 over 200 draws" true (a <> []);
        check_bool "not every draw fires" true (List.length a < 200);
        (* Different seeds should decide at least one of 200 draws
           differently; equality would mean the seed is ignored. *)
        check_bool "seed changes the pattern" true (a <> c));
    test_case "probability 0 never fires, 1 always fires" (fun () ->
        armed "s:transient~0" (fun () ->
            check_bool "never" true (firing_occurrences "s" 50 = []));
        armed "s:transient~1" (fun () ->
            check_int "always" 50
              (List.length (firing_occurrences "s" 50))));
  ]

let catalogue_tests =
  [
    test_case "known_sites pins the catalogue behind `fault sites`" (fun () ->
        (* `spamlab fault sites` prints exactly this list.  Adding a
           Fault.check call site without registering it here (and
           deciding its chaos eligibility in Serve.Chaos) is the bug
           this test exists to catch. *)
        let names = List.map fst known_sites in
        Alcotest.(check (list string))
          "catalogue"
          [
            "checkpoint.record";
            "db.journal.fold";
            "db.save.rename";
            "db.save.write";
            "intern.grow";
            "journal.fsync";
            "journal.write";
            "pool.task";
            "score.cache.fill";
            "serve.accept";
            "serve.deadline";
            "serve.publish";
            "serve.read";
            "serve.write";
            "store.compact";
            "store.evict";
            "store.journal.append";
          ]
          names;
        Alcotest.(check (list string))
          "sorted and duplicate-free"
          (List.sort_uniq compare names)
          names;
        List.iter
          (fun (site, doc) ->
            check_bool (site ^ " documented") true (String.length doc > 0))
          known_sites);
  ]

let () =
  Alcotest.run "spamlab_fault"
    [
      ("parse", parse_tests);
      ("selectors", selector_tests);
      ("catalogue", catalogue_tests);
    ]

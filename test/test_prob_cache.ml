(* Differential tests for the generation-stamped probability cache:
   every scoring engine — private per-filter cache, shared snapshot
   cache, tenant overlay over the store's prior cache — must be
   bit-identical to the pre-cache list scoring path kept in the oracle
   ([score_ids_reference]) under arbitrary interleavings of training,
   untraining and classification, including forced store evictions,
   daemon publish cycles, and injected cache-fill faults. *)

open Spamlab_spambayes
module Store = Spamlab_store.Store
module Fault = Spamlab_fault

let score_ids_reference = Spamlab_oracle.Scoring.score_ids_reference

(* Fixture tokens, interned as the id entry points take them. *)
let ids_of = Intern.intern_array

let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?print ~count ~name gen prop)

(* Bit-exact result equality: indicator and every clue score compared
   as float *bits* (Int64.bits_of_float), not with a tolerance — the
   cache contract is byte-identical output, so 1 ulp is a failure. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* [a] from verdict-only scoring: [b]'s indicator bits and verdict, no
   clues. *)
let same_verdict (a : Classify.result) (b : Classify.result) =
  same_float a.Classify.indicator b.Classify.indicator
  && a.Classify.verdict = b.Classify.verdict
  && a.Classify.clues = []

let same_result (a : Classify.result) (b : Classify.result) =
  same_float a.Classify.indicator b.Classify.indicator
  && a.Classify.verdict = b.Classify.verdict
  && List.length a.Classify.clues = List.length b.Classify.clues
  && List.for_all2
       (fun (x : Classify.clue) (y : Classify.clue) ->
         String.equal x.Classify.token y.Classify.token
         && same_float x.Classify.score y.Classify.score)
       a.Classify.clues b.Classify.clues

(* A small vocabulary so random messages collide with the trained set
   and hapax clusters produce lots of exact strength ties (the
   tie-break path).  Tokens are plain strings; ids come from the
   process-global interner. *)
let vocab =
  Array.init 48 (fun i -> Printf.sprintf "%c%02d" (Char.chr (97 + (i mod 7))) i)

let msg_of_indices ixs =
  Array.of_list
    (List.sort_uniq compare (List.map (fun i -> vocab.(i mod Array.length vocab)) ixs))

(* One random workload step.  [Untrain] pops the oldest still-trained
   message, so untraining is always of something actually trained
   (negative counts are a different module's contract). *)
type op =
  | Train of bool * int list  (* spam?, token indices *)
  | Untrain
  | Classify of int list

let op_gen =
  QCheck2.Gen.(
    let ixs = list_size (int_range 1 8) (int_range 0 1000) in
    frequency
      [
        (3, map2 (fun s m -> Train (s, m)) bool ixs);
        (1, return Untrain);
        (4, map (fun m -> Classify m) ixs);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 1 40) op_gen)

let print_op = function
  | Train (s, m) ->
      Printf.sprintf "Train(%b,[%s])" s
        (String.concat ";" (List.map string_of_int m))
  | Untrain -> "Untrain"
  | Classify m ->
      Printf.sprintf "Classify([%s])"
        (String.concat ";" (List.map string_of_int m))

let print_ops ops = String.concat " " (List.map print_op ops)

(* Both scoring entry points through each engine against the
   reference: verdict-only scoring on indicator and verdict, [explain]
   bit for bit, clues included. *)
let both_agree ?uncached ~cached ids reference =
  let n = Array.length ids in
  List.for_all
    (fun e ->
      same_verdict (Classify.score_engine e ids) reference
      && same_result (Classify.explain e ids n) reference)
    (cached :: Option.to_list uncached)

(* ------------------------------------------------------------------ *)
(* Filter path: one persistent filter (and thus one persistent private
   cache) across the whole interleaving; every classification must
   match the uncached engine and the verbatim reference on the same
   live db.                                                            *)

let filter_differential ops =
  let filter = Filter.create () in
  let options = Filter.options filter in
  let trained = Queue.create () in
  List.for_all
    (function
      | Train (spam, ixs) ->
          let label = if spam then Label.Spam else Label.Ham in
          let tokens = msg_of_indices ixs in
          Filter.train_tokens filter label tokens;
          Queue.push (label, tokens) trained;
          true
      | Untrain ->
          (match Queue.take_opt trained with
          | Some (label, tokens) ->
              Token_db.untrain_ids (Filter.db filter) label (ids_of tokens)
          | None -> ());
          true
      | Classify ixs ->
          let ids = Intern.intern_array (msg_of_indices ixs) in
          let db = Filter.db filter in
          let uncached = Classify.engine options db in
          let reference = score_ids_reference options db ids in
          both_agree ~cached:(Filter.engine filter) ~uncached ids reference)
    ops

(* ------------------------------------------------------------------ *)
(* Store path: tenant overlays scored through the shared prior cache
   ([with_user_engine]) vs the reference on the raw overlay db.  The
   store geometry is deliberately tiny (4 shards, 2 cached overlays)
   so the random workload constantly evicts and rematerializes
   overlays underneath the engines.                                    *)

let with_tmp_dir f =
  let dir = Filename.temp_file "spamlab_test" ".probcache" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let store_differential ops =
  with_tmp_dir @@ fun dir ->
  let prior = Token_db.create () in
  Token_db.train_ids prior Label.Spam (ids_of (msg_of_indices [ 0; 1; 2; 3 ]));
  Token_db.train_ids prior Label.Ham (ids_of (msg_of_indices [ 4; 5; 6; 7 ]));
  let config =
    { Store.default_config with Store.backend = `Sharded dir; shards = 4;
      cache = 2 }
  in
  match Store.open_store ~prior config with
  | Error e -> Alcotest.fail ("open_store: " ^ e)
  | Ok st ->
      Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
      let options = Options.default in
      let user_of ixs =
        Printf.sprintf "user-%d" (match ixs with [] -> 0 | i :: _ -> i mod 5)
      in
      List.for_all
        (function
          | Train (spam, ixs) ->
              let label = if spam then Label.Spam else Label.Ham in
              Store.train st ~user:(user_of ixs) label (msg_of_indices ixs);
              true
          | Untrain -> true  (* the store journal is append-only *)
          | Classify ixs ->
              let user = user_of ixs in
              let ids = Intern.intern_array (msg_of_indices ixs) in
              let reference =
                Store.with_user st user (fun db ->
                    score_ids_reference options db ids)
              in
              Store.with_user_engine st user (fun e ->
                  both_agree ~cached:e ids reference))
        ops

(* ------------------------------------------------------------------ *)
(* Daemon publish cycle: train, publish an immutable snapshot with a
   fresh shared cache, fan classifications against it, train more,
   republish.  Each round's cached results must match the reference on
   that round's snapshot.                                              *)

let publish_cycle_differential ops =
  let filter = Filter.create () in
  let options = Filter.options filter in
  let rounds =
    (* Partition the op stream into publish rounds at each Untrain. *)
    List.fold_left
      (fun acc op ->
        match (op, acc) with
        | Untrain, _ -> [] :: acc
        | _, cur :: rest -> (op :: cur) :: rest
        | _, [] -> [ [ op ] ])
      [ [] ] ops
  in
  List.for_all
    (fun round ->
      let snapshot = Token_db.copy (Filter.db filter) in
      let cache = Prob_cache.create ~shared:true options snapshot in
      let engine = Classify.engine_cached cache in
      List.for_all
        (fun op ->
          match op with
          | Train (spam, ixs) ->
              (* Mutates the live filter only: the published snapshot
                 and its cache must keep serving the old state. *)
              let label = if spam then Label.Spam else Label.Ham in
              Filter.train_tokens filter label (msg_of_indices ixs);
              true
          | Untrain -> true
          | Classify ixs ->
              let ids = Intern.intern_array (msg_of_indices ixs) in
              let reference =
                score_ids_reference options snapshot ids
              in
              both_agree ~cached:engine ids reference)
        (List.rev round))
    rounds

(* ------------------------------------------------------------------ *)
(* Tie-break: a hapax cluster — dozens of tokens each trained exactly
   once as spam — scores every token identically, so clue order within
   the cluster is decided purely by the token-string tie-break.  The
   scratch-array sort must reproduce the reference's List.sort order
   exactly, both for rank-covered ids and for ids interned after the
   last freeze (rank -1, byte-compare fallback).                       *)

let tie_break_tests =
  [
    test_case "hapax cluster order matches reference" (fun () ->
        let db = Token_db.create () in
        let cluster =
          Array.init 40 (fun i -> Printf.sprintf "tie-%c-%d" (Char.chr (122 - (i mod 9))) i)
        in
        Array.iter (fun t -> Token_db.train_ids db Label.Spam (ids_of [| t |])) cluster;
        Token_db.train_ids db Label.Ham (ids_of [| "ballast" |]);
        Intern.freeze ();
        let ids = Intern.intern_array cluster in
        let options = Options.default in
        let engine = Classify.engine options db in
        let fast = Classify.explain engine ids (Array.length ids) in
        let reference = score_ids_reference options db ids in
        check_bool "bit-identical" true (same_result fast reference);
        check_bool "verdict only" true
          (same_verdict (Classify.score_engine engine ids) reference);
        let tokens = List.map (fun c -> c.Classify.token) fast.Classify.clues in
        check_bool "clues sorted by byte order within the tie" true
          (List.sort String.compare tokens = tokens));
    test_case "post-freeze ids fall back to byte compare" (fun () ->
        let db = Token_db.create () in
        let covered = Array.init 12 (fun i -> Printf.sprintf "cov-%02d" i) in
        Array.iter (fun t -> Token_db.train_ids db Label.Spam (ids_of [| t |])) covered;
        Intern.freeze ();
        (* Interned after the freeze: rank is -1 for these, so sorting
           mixes int-compare and byte-compare paths in one message. *)
        let fresh = Array.init 12 (fun i -> Printf.sprintf "cov-%02d-x" i) in
        Array.iter (fun t -> Token_db.train_ids db Label.Spam (ids_of [| t |])) fresh;
        let ids = Intern.intern_array (Array.append covered fresh) in
        let options = Options.default in
        let engine = Classify.engine options db in
        let fast = Classify.explain engine ids (Array.length ids) in
        let reference = score_ids_reference options db ids in
        check_bool "bit-identical" true (same_result fast reference);
        check_bool "verdict only" true
          (same_verdict (Classify.score_engine engine ids) reference));
    test_case "winner truncation happens after the tie-break" (fun () ->
        (* More equal-strength candidates than max_discriminators: which
           ones survive depends entirely on the tie-break order. *)
        let db = Token_db.create () in
        let cluster = Array.init 30 (fun i -> Printf.sprintf "trunc-%02d" i) in
        Array.iter (fun t -> Token_db.train_ids db Label.Spam (ids_of [| t |])) cluster;
        Intern.freeze ();
        let options = { Options.default with Options.max_discriminators = 7 } in
        let ids = Intern.intern_array cluster in
        let engine = Classify.engine options db in
        let fast = Classify.explain engine ids (Array.length ids) in
        let reference = score_ids_reference options db ids in
        check_bool "bit-identical" true (same_result fast reference);
        check_bool "verdict only" true
          (same_verdict (Classify.score_engine engine ids) reference);
        check_bool "truncated" true (List.length fast.Classify.clues = 7));
  ]

(* ------------------------------------------------------------------ *)
(* Fault site score.cache.fill.                                        *)

let with_faults spec f =
  match Fault.configure spec with
  | Error e -> Alcotest.fail ("fault spec: " ^ e)
  | Ok () -> Fun.protect ~finally:Fault.disable f

let fault_tests =
  [
    test_case "transient fill faults are byte-identical" (fun () ->
        let filter = Filter.create () in
        Filter.train_tokens filter Label.Spam (msg_of_indices [ 0; 1; 2 ]);
        Filter.train_tokens filter Label.Ham (msg_of_indices [ 3; 4; 5 ]);
        let options = Filter.options filter in
        let ids = Intern.intern_array (msg_of_indices [ 0; 1; 3; 4; 8 ]) in
        let reference =
          score_ids_reference options (Filter.db filter) ids
        in
        (* Every fill attempt faults: the cache never warms, every read
           falls through to the uncached compute, output unchanged. *)
        with_faults "score.cache.fill:transient~1" (fun () ->
            let r = Filter.classify_ids filter ids in
            check_bool "all-faults run matches" true (same_verdict r reference));
        (* Sporadic faults: some slots fill, some fall through, then a
           clean pass serves the (partially warm) cache. *)
        with_faults "score.cache.fill:transient@1+3+5" (fun () ->
            let r = Filter.classify_ids filter ids in
            check_bool "sporadic-faults run matches" true
              (same_verdict r reference));
        let r = Filter.classify_ids filter ids in
        check_bool "post-fault warm run matches" true (same_verdict r reference);
        check_bool "explained warm run matches" true
          (same_result (Classify.explain (Filter.engine filter) ids (Array.length ids)) reference));
    test_case "fatal fill fault raises" (fun () ->
        let filter = Filter.create () in
        Filter.train_tokens filter Label.Spam (msg_of_indices [ 0; 1; 2 ]);
        let ids = Intern.intern_array (msg_of_indices [ 0; 1; 2 ]) in
        with_faults "score.cache.fill:fatal@1" (fun () ->
            check_bool "raises Injected" true
              (match Filter.classify_ids filter ids with
              | _ -> false
              | exception Fault.Injected { site; _ } ->
                  site = "score.cache.fill")));
  ]

(* ------------------------------------------------------------------ *)

let differential_tests =
  [
    qtest ~count:60 ~print:print_ops
      "filter: cached = uncached = reference over interleavings" ops_gen
      filter_differential;
    qtest ~count:30 ~print:print_ops
      "store: overlay engine = reference under evictions" ops_gen
      store_differential;
    qtest ~count:40 ~print:print_ops
      "daemon: published snapshot cache = reference" ops_gen
      publish_cycle_differential;
  ]

let () =
  Alcotest.run "prob_cache"
    [
      ("differential", differential_tests);
      ("tie_break", tie_break_tests);
      ("faults", fault_tests);
    ]

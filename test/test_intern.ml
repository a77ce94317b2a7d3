(* Tests for the token-interning layer and the copy-on-write Token_db:
   intern table invariants, the occurrence-aware untrain fix, and
   differential properties pitting the int-indexed/CoW implementation
   against a straightforward string-keyed reference on random
   train/untrain/classify traces. *)

open Spamlab_spambayes

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let save_string db =
  let path = Filename.temp_file "spamlab" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Token_db.save oc db;
      close_out oc;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s)

(* ------------------------------------------------------------------ *)
(* Intern table                                                        *)

let intern_tests =
  [
    test_case "same string, same id; to_string round-trips" (fun () ->
        let a1 = Intern.id "intern-test-alpha" in
        let a2 = Intern.id "intern-test-alpha" in
        let b = Intern.id "intern-test-beta" in
        check_int "stable" a1 a2;
        check_bool "distinct strings, distinct ids" true (a1 <> b);
        check_str "round-trip a" "intern-test-alpha" (Intern.to_string a1);
        check_str "round-trip b" "intern-test-beta" (Intern.to_string b));
    test_case "empty string is a real token" (fun () ->
        let e = Intern.id "" in
        check_str "round-trip" "" (Intern.to_string e);
        check_int "stable" e (Intern.id ""));
    test_case "find never interns" (fun () ->
        let probe = "intern-test-never-interned-gamma" in
        check_bool "absent" true (Intern.find probe = None);
        let before = Intern.size () in
        check_bool "still absent" true (Intern.find probe = None);
        check_int "size unchanged" before (Intern.size ());
        let id = Intern.id probe in
        check_bool "found after intern" true (Intern.find probe = Some id));
    test_case "intern_array agrees with id, elementwise" (fun () ->
        let tokens =
          [| "intern-test-x"; "intern-test-y"; "intern-test-x"; "" |]
        in
        let ids = Intern.intern_array tokens in
        check_int "length" (Array.length tokens) (Array.length ids);
        Array.iteri
          (fun i tok -> check_int tok (Intern.id tok) ids.(i))
          tokens;
        check_int "duplicates share an id" ids.(0) ids.(2));
    test_case "freeze keeps lookups working and is idempotent" (fun () ->
        let pre = Intern.id "intern-test-pre-freeze" in
        Intern.freeze ();
        check_int "pre-freeze id survives" pre
          (Intern.id "intern-test-pre-freeze");
        let post = Intern.id "intern-test-post-freeze" in
        Intern.freeze ();
        Intern.freeze ();
        check_int "post-freeze id survives" post
          (Intern.id "intern-test-post-freeze");
        check_str "to_string after freeze" "intern-test-post-freeze"
          (Intern.to_string post));
    test_case "byte_order lists positions in token byte order" (fun () ->
        let covered = Intern.intern_array [| "bo-m"; "bo-a"; "bo-z" |] in
        Intern.freeze ();
        let late = Intern.intern_array [| "bo-b"; "bo-"; "bo-y" |] in
        let ids = Array.append covered late in
        let order = Intern.byte_order ids (Array.length ids) in
        check_str "merged order" "bo- bo-a bo-b bo-m bo-y bo-z"
          (String.concat " "
             (Array.to_list
                (Array.map (fun pos -> Intern.to_string ids.(pos)) order)));
        check_int "prefix only" 2 (Array.length (Intern.byte_order ids 2)));
    test_case "to_string rejects unknown ids" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Intern.to_string: unknown id") (fun () ->
            ignore (Intern.to_string (-1)));
        Alcotest.check_raises "past the end"
          (Invalid_argument "Intern.to_string: unknown id") (fun () ->
            ignore (Intern.to_string (Intern.size () + 1_000_000))));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental freeze: ranks equal a from-scratch sort                 *)

(* Short strings over an alphabet holding the save format's delimiters,
   bytes >= 0x80 and NUL: draws share prefixes, include the empty
   string, and keep producing strings the table has not seen yet. *)
let gen_name =
  QCheck2.Gen.(
    string_size
      ~gen:
        (oneofa [| 'a'; 'b'; '\t'; '\n'; '\\'; '\r'; '\x80'; '\xff'; '\000' |])
      (int_range 0 5))

type intern_op = Intern_names of string list | Freeze

let gen_intern_ops =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           ( 3,
             map
               (fun l -> Intern_names l)
               (list_size (int_range 0 8) gen_name) );
           (1, pure Freeze);
         ]))

(* Every assigned id, ranked from scratch: its position in a
   [String.compare] sort of the whole table. *)
let ranks_from_scratch () =
  let n = Intern.size () in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> String.compare (Intern.to_string a) (Intern.to_string b))
    order;
  let rk = Array.make n 0 in
  Array.iteri (fun pos id -> rk.(id) <- pos) order;
  rk

let rank_tests =
  [
    qtest ~count:100 "freeze: incremental ranks equal a full sort"
      gen_intern_ops (fun ops ->
        let frozen_size = ref (-1) in
        List.for_all
          (function
            | Freeze ->
                Intern.freeze ();
                frozen_size := Intern.size ();
                let want = ranks_from_scratch () in
                Array.for_all Fun.id
                  (Array.mapi (fun id r -> Intern.rank id = r) want)
            | Intern_names names ->
                let ids = Intern.intern_array (Array.of_list names) in
                (* Ids interned since the last freeze are not ranked. *)
                Array.for_all
                  (fun id ->
                    !frozen_size < 0 || id < !frozen_size
                    || Intern.rank id = -1)
                  ids)
          (ops @ [ Freeze ]));
  ]

(* ------------------------------------------------------------------ *)
(* Batched lookup: Intern.resolve against Intern.id                    *)

module Fault = Spamlab_fault

(* Key tails over an alphabet with NUL and 0xff, including the empty
   tail, so keys share prefixes and differ only in their last bytes. *)
let gen_tail =
  QCheck2.Gen.(
    string_size ~gen:(oneofa [| 'a'; 'b'; '\000'; '\xff' |]) (int_range 0 4))

type pick = Pre of int | Post of int | Fresh of int | Empty

let gen_batch =
  QCheck2.Gen.(
    let tails = list_size (int_range 1 12) gen_tail in
    quad tails tails tails
      (list_size (int_range 0 80)
         (frequency
            [
              (3, map (fun i -> Pre i) nat);
              (3, map (fun i -> Post i) nat);
              (3, map (fun i -> Fresh i) nat);
              (1, pure Empty);
            ])))

let batch_run = ref 0

let resolved keys =
  let k = Intern.keys () in
  List.iter (Intern.add k) keys;
  Array.sub (Intern.resolve k) 0 (Intern.key_count k)

(* Every key resolves to [Intern.id] of its string, and the keys the
   table had never seen get [size_before], [size_before + 1], ... in
   the order of their first occurrence. *)
let check_resolved ~size_before ~is_fresh keys ids =
  let next = ref size_before and seen = Hashtbl.create 16 in
  List.iteri
    (fun i key ->
      if is_fresh key && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        if ids.(i) <> !next then
          Alcotest.failf "fresh key %S: id %d, want %d" key ids.(i) !next;
        incr next
      end;
      if ids.(i) <> Intern.id key then
        Alcotest.failf "key %S: resolved %d, Intern.id %d" key ids.(i)
          (Intern.id key))
    keys;
  check_int "table grew by the fresh keys" !next (Intern.size ())

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let resolve_tests =
  [
    qtest ~count:300 "resolve agrees with id; fresh keys in first-occurrence order"
      gen_batch (fun (pre, post, fresh, picks) ->
        incr batch_run;
        let key cat tails i =
          Printf.sprintf "batch-%s-%d-%s" cat !batch_run
            (List.nth tails (i mod List.length tails))
        in
        let pre_keys = List.map (key "pre" pre) (List.init (List.length pre) Fun.id) in
        List.iter (fun k -> ignore (Intern.id k)) ("" :: pre_keys);
        Intern.freeze ();
        (* Interned after the freeze: the live table holds these, the
           snapshot (barring an automatic refresh) does not. *)
        List.iter
          (fun i -> ignore (Intern.id (key "post" post i)))
          (List.init (List.length post) Fun.id);
        (* A batch the snapshot holds whole never takes the live path,
           not even for keys whose home slot holds another key: it
           allocates nothing, where the lock costs a closure. *)
        let k = Intern.keys () in
        let empty = minor_words_of (fun () -> ignore (Intern.resolve k)) in
        List.iter (Intern.add k) pre_keys;
        let words = minor_words_of (fun () -> ignore (Intern.resolve k)) in
        Alcotest.(check (float 0.)) "minor words resolving pre-freeze keys"
          empty words;
        let pre_ids = Intern.resolve k in
        List.iteri
          (fun i key -> check_int key (Intern.id key) pre_ids.(i))
          pre_keys;
        let keys =
          List.map
            (function
              | Pre i -> key "pre" pre i
              | Post i -> key "post" post i
              | Fresh i -> key "new" fresh i
              | Empty -> "")
            picks
        in
        let size_before = Intern.size () in
        let prefix = Printf.sprintf "batch-new-%d-" !batch_run in
        check_resolved ~size_before
          ~is_fresh:(String.starts_with ~prefix)
          keys (resolved keys);
        true);
    test_case "a resolve that grows the table retries to the same ids"
      (fun () ->
        let pre = List.init 50 (Printf.sprintf "grow-pre-%d\000") in
        List.iter (fun k -> ignore (Intern.id k)) pre;
        Intern.freeze ();
        let post = List.init 50 (Printf.sprintf "grow-post-%d\xff") in
        List.iter (fun k -> ignore (Intern.id k)) post;
        (* Past the next doubling of the slot table, whatever its size:
           it holds at most half as many keys as slots, and has at
           least 2^17 slots. *)
        let n_fresh = max 65_537 (Intern.size () + 1) in
        let keys =
          List.concat
            [
              pre;
              List.init n_fresh (Printf.sprintf "grow-new-%d\xff\000");
              post;
              [ ""; "grow-new-0\xff\000" ];
              pre;
            ]
        in
        ignore (Intern.id "");
        let size_before = Intern.size () in
        let k = Intern.keys () in
        List.iter (Intern.add k) keys;
        (match Fault.configure "intern.grow:transient@1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match Fun.protect ~finally:Fault.disable (fun () -> Intern.resolve k) with
        | exception Fault.Injected { site = "intern.grow"; _ } -> ()
        | _ -> Alcotest.fail "the resolve did not grow the table");
        check_bool "the fault left a prefix interned" true
          (Intern.size () > size_before);
        let ids = Array.sub (Intern.resolve k) 0 (Intern.key_count k) in
        check_resolved ~size_before
          ~is_fresh:(String.starts_with ~prefix:"grow-new-")
          keys ids);
    test_case "add_sub validates slices" (fun () ->
        let k = Intern.keys () in
        Alcotest.check_raises "negative off"
          (Invalid_argument "Intern.add_sub") (fun () ->
            Intern.add_sub k "abc" (-1) 2);
        Alcotest.check_raises "past end" (Invalid_argument "Intern.add_sub")
          (fun () -> Intern.add_sub k "abc" 2 2);
        check_int "nothing added" 0 (Intern.key_count k));
  ]

(* ------------------------------------------------------------------ *)
(* The radix routine behind sort_uniq and byte_order                   *)

let sort_uniq_list l =
  let a = Array.of_list l in
  let n = Intern.sort_uniq a (Array.length a) in
  Array.to_list (Array.sub a 0 n)

let radix_tests =
  [
    qtest ~count:500 "sort_uniq equals List.sort_uniq compare"
      QCheck2.Gen.(
        (* One to four byte-wide digit passes. *)
        oneofl [ 255; 65_535; (1 lsl 24) - 1; 1 lsl 30 ] >>= fun top ->
        list_size (int_range 0 300)
          (frequency [ (4, int_range 0 top); (1, int_range 0 7) ]))
      (fun l -> sort_uniq_list l = List.sort_uniq compare l);
    test_case "sort_uniq edge cases" (fun () ->
        let check name l =
          Alcotest.(check (list int)) name (List.sort_uniq compare l)
            (sort_uniq_list l)
        in
        check "empty" [];
        check "one" [ 1 lsl 30 ];
        check "zero" [ 0 ];
        check "all duplicates" (List.init 1_000 (fun _ -> 70_000));
        check "descending" (List.init 600 (fun i -> (600 - i) * 4_099));
        let a = [| 5; 3; 5; 1 |] in
        check_int "prefix only" 2 (Intern.sort_uniq a 2);
        Alcotest.(check (array int)) "tail untouched" [| 3; 5; 5; 1 |] a;
        Alcotest.check_raises "negative"
          (Invalid_argument "Intern.sort_uniq: negative") (fun () ->
            ignore (Intern.sort_uniq [| 1; -1 |] 2));
        Alcotest.check_raises "n past the end"
          (Invalid_argument "Intern.sort_uniq") (fun () ->
            ignore (Intern.sort_uniq [| 1 |] 2)));
  ]

(* ------------------------------------------------------------------ *)
(* Occurrence-aware untrain (regression: duplicate tokens)             *)

let untrain_duplicate_tests =
  [
    test_case "duplicate token with count 1 fails atomically" (fun () ->
        (* The old per-token validation passed for each occurrence of
           "dup" (count 1 > 0), decremented once, then blew up mid-way,
           leaving nspam and the counts corrupted. *)
        let db = Token_db.create () in
        Token_db.train db Label.Spam [| "dup"; "solo" |];
        Alcotest.check_raises "rejected"
          (Invalid_argument
             "Token_db.untrain: token \"dup\" was never trained") (fun () ->
            Token_db.untrain db Label.Spam [| "dup"; "dup" |]);
        check_int "nspam intact" 1 (Token_db.nspam db);
        check_int "dup count intact" 1 (Token_db.spam_count db "dup");
        check_int "solo count intact" 1 (Token_db.spam_count db "solo");
        check_int "distinct intact" 2 (Token_db.distinct_tokens db));
    test_case "duplicates round-trip when trained with duplicates"
      (fun () ->
        let db = Token_db.create () in
        Token_db.train db Label.Ham [| "dup"; "dup"; "other" |];
        check_int "trained twice" 2 (Token_db.ham_count db "dup");
        Token_db.untrain db Label.Ham [| "dup"; "dup"; "other" |];
        check_int "back to zero" 0 (Token_db.ham_count db "dup");
        check_int "nham zero" 0 (Token_db.nham db);
        check_int "empty again" 0 (Token_db.distinct_tokens db));
    test_case "validation precedes all mutation on a copy" (fun () ->
        let base = Token_db.create () in
        Token_db.train base Label.Spam [| "shared-a"; "shared-b" |];
        let copy = Token_db.copy base in
        Alcotest.check_raises "rejected on the copy"
          (Invalid_argument
             "Token_db.untrain: token \"shared-a\" was never trained")
          (fun () ->
            Token_db.untrain copy Label.Spam [| "shared-a"; "shared-a" |]);
        check_str "copy still byte-identical to base" (save_string base)
          (save_string copy));
  ]

(* ------------------------------------------------------------------ *)
(* Reference implementation: a plain string-keyed count table with the
   semantics the pre-interning Token_db had.  Deliberately naive — its
   job is to be obviously correct.                                     *)

module Ref_db = struct
  type t = {
    counts : (string, int * int) Hashtbl.t;
    mutable nspam : int;
    mutable nham : int;
  }

  let create () = { counts = Hashtbl.create 64; nspam = 0; nham = 0 }

  let copy t =
    { counts = Hashtbl.copy t.counts; nspam = t.nspam; nham = t.nham }

  let get t tok =
    Option.value (Hashtbl.find_opt t.counts tok) ~default:(0, 0)

  let set t tok (s, h) =
    if s = 0 && h = 0 then Hashtbl.remove t.counts tok
    else Hashtbl.replace t.counts tok (s, h)

  let bump t label tok k =
    let s, h = get t tok in
    match (label : Label.gold) with
    | Label.Spam -> set t tok (s + k, h)
    | Label.Ham -> set t tok (s, h + k)

  let train_many t label tokens k =
    Array.iter (fun tok -> bump t label tok k) tokens;
    match (label : Label.gold) with
    | Label.Spam -> t.nspam <- t.nspam + k
    | Label.Ham -> t.nham <- t.nham + k

  let train t label tokens = train_many t label tokens 1
  let untrain t label tokens = train_many t label tokens (-1)
  let spam_count t tok = fst (get t tok)
  let ham_count t tok = snd (get t tok)
  let distinct t = Hashtbl.length t.counts

  let escape token =
    let buf = Buffer.create (String.length token + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      token;
    Buffer.contents buf

  (* Bitwise (non-table) CRC-32, deliberately a different algorithmic
     shape from the table-driven one in [Token_db]. *)
  let crc32 s =
    let c = ref 0xffffffff in
    String.iter
      (fun ch ->
        c := !c lxor Char.code ch;
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done)
      s;
    !c lxor 0xffffffff

  (* An independent rendering of the v3 text format, for byte-level
     comparison against [Token_db.save]. *)
  let save_string t =
    let buf = Buffer.create 256 in
    Printf.bprintf buf "spamlab-token-db 3 %d %d\n" t.nspam t.nham;
    Hashtbl.fold (fun tok c acc -> (tok, c) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (tok, (s, h)) ->
           Printf.bprintf buf "%s\t%d\t%d\n" (escape tok) s h);
    Printf.bprintf buf "#spamlab-db-footer crc32=%08x entries=%d\n"
      (crc32 (Buffer.contents buf))
      (Hashtbl.length t.counts);
    Buffer.contents buf

  (* Classification from reference counts: strength-filter every token's
     smoothed score, then reuse the real selection/Fisher pipeline
     ([Classify.score_clues] is pure in the counts). *)
  let score options t tokens =
    let nspam = t.nspam and nham = t.nham in
    let min_strength = options.Options.minimum_prob_strength in
    let candidates =
      Array.fold_left
        (fun acc tok ->
          let score =
            Score.smoothed_counts options ~spam:(spam_count t tok)
              ~ham:(ham_count t tok) ~nspam ~nham
          in
          if Float.abs (score -. 0.5) >= min_strength then
            { Classify.token = tok; score } :: acc
          else acc)
        [] tokens
    in
    Classify.score_clues options candidates
end

(* ------------------------------------------------------------------ *)
(* Random traces                                                       *)

(* A small universe forces collisions, duplicates, and re-zeroed
   entries; the nasty strings exercise save escaping. *)
let universe =
  [|
    "alpha"; "beta"; "gamma"; "delta"; ""; "tab\tinside"; "nl\ninside";
    "back\\slash"; "cr\rinside"; "unicode-é";
  |]

(* A few thousand more: an overlay trained from this universe outgrows
   its first table several times over. *)
let big_universe =
  Array.append universe (Array.init 3000 (Printf.sprintf "grown-%04d"))

type op =
  | Train of Label.gold * int array  (* indices into the universe *)
  | Train_many of Label.gold * int array * int
  | Untrain of int  (* index into the list of previously trained msgs *)

let gen_ops_in ?(max_msg = 6) universe =
  let open QCheck2.Gen in
  let label = map (fun b -> if b then Label.Spam else Label.Ham) bool in
  let msg =
    array_size (int_range 0 max_msg) (int_range 0 (Array.length universe - 1))
  in
  let op =
    frequency
      [
        (4, map2 (fun l m -> Train (l, m)) label msg);
        (2, map3 (fun l m k -> Train_many (l, m, k)) label msg (int_range 0 4));
        (2, map (fun i -> Untrain i) (int_range 0 1000));
      ]
  in
  list_size (int_range 0 40) op

let gen_ops = gen_ops_in universe

(* Messages honor the documented contract (deduplicated token arrays);
   duplicate-token behavior is pinned separately above. *)
let resolve ?(universe = universe) ?(rename = Fun.id) idx =
  Array.to_list idx
  |> List.map (fun i -> rename universe.(i))
  |> List.sort_uniq String.compare
  |> Array.of_list

(* Applies a trace to both implementations.  Untrains only ever target a
   message recorded as trained (and still un-untrained), so both sides
   stay on the defined part of the API.  [rename] maps the universe
   onto the token strings actually trained; [after] runs after each
   op with its index. *)
let apply_trace ?universe ?rename ?(after = fun _ -> ()) ops db rdb =
  let resolve = resolve ?universe ?rename in
  let trained = ref [] in
  List.iteri
    (fun step op ->
      (match op with
      | Train (label, idx) ->
          let tokens = resolve idx in
          Token_db.train db label tokens;
          Ref_db.train rdb label tokens;
          trained := (label, tokens) :: !trained
      | Train_many (label, idx, k) ->
          let tokens = resolve idx in
          Token_db.train_many db label tokens k;
          Ref_db.train_many rdb label tokens k;
          for _ = 1 to k do
            trained := (label, tokens) :: !trained
          done
      | Untrain i -> (
          match !trained with
          | [] -> ()
          | l ->
              let n = List.length l in
              let label, tokens = List.nth l (i mod n) in
              Token_db.untrain db label tokens;
              Ref_db.untrain rdb label tokens;
              trained :=
                List.filteri (fun j _ -> j <> i mod n) l));
      after step)
    ops

let agree ?(universe = universe) ?(rename = Fun.id) db rdb =
  Token_db.nspam db = rdb.Ref_db.nspam
  && Token_db.nham db = rdb.Ref_db.nham
  && Token_db.distinct_tokens db = Ref_db.distinct rdb
  && Array.for_all
       (fun tok ->
         let tok = rename tok in
         Token_db.spam_count db tok = Ref_db.spam_count rdb tok
         && Token_db.ham_count db tok = Ref_db.ham_count rdb tok)
       universe
  && Token_db.spam_count db "never-trained-token" = 0
  && save_string db = Ref_db.save_string rdb

let scores_agree db rdb =
  let options = Options.default in
  (* Distinct-token probe messages drawn from the universe. *)
  let probes =
    [
      [| "alpha"; "beta"; "" |];
      [| "gamma"; "tab\tinside"; "back\\slash"; "unicode-é" |];
      Array.copy universe;
      [| "never-trained-token"; "delta" |];
    ]
  in
  List.for_all
    (fun probe ->
      let got = Classify.score_tokens options db probe in
      let want = Ref_db.score options rdb probe in
      got.Classify.indicator = want.Classify.indicator
      && got.Classify.verdict = want.Classify.verdict
      && got.Classify.clues = want.Classify.clues)
    probes

(* Every other universe token, with a suffix no earlier call produced:
   trained after a freeze, those strings are interned late (unranked)
   and sort in between the ranked universe tokens. *)
let late_rename =
  let calls = ref 0 in
  fun () ->
    incr calls;
    let suffix = Printf.sprintf "\x01late%d" !calls in
    fun tok -> if String.length tok mod 2 = 0 then tok else tok ^ suffix

let differential_tests =
  [
    qtest ~count:200 "trace: counts, distinct, saved bytes match reference"
      gen_ops
      (fun ops ->
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ops db rdb;
        agree db rdb);
    qtest ~count:100 "save: bytes match reference, every id rank-covered"
      gen_ops
      (fun ops ->
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ops db rdb;
        Intern.freeze ();
        agree db rdb);
    qtest ~count:100 "save: bytes match reference, ids interned after freeze"
      gen_ops
      (fun ops ->
        ignore (Intern.intern_array universe);
        Intern.freeze ();
        let rename = late_rename () in
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ~rename ops db rdb;
        agree ~rename db rdb);
    qtest ~count:100 "trace: classification matches reference scoring"
      gen_ops
      (fun ops ->
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ops db rdb;
        scores_agree db rdb);
    qtest ~count:100 "trace: save/load round-trip is the identity" gen_ops
      (fun ops ->
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ops db rdb;
        let path = Filename.temp_file "spamlab" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            Token_db.save oc db;
            close_out oc;
            let ic = open_in path in
            let loaded = Token_db.load ic in
            close_in ic;
            match loaded with
            | Error _ -> false
            | Ok loaded -> save_string loaded = save_string db));
  ]

(* ------------------------------------------------------------------ *)
(* Copy-on-write vs deep copy                                          *)

(* Either the small universe, or the big one with long messages, whose
   overlays cross several table resizes. *)
let gen_three_traces =
  let open QCheck2.Gen in
  let traces universe ops =
    map (fun (a, b, c) -> (universe, a, b, c)) (triple ops ops ops)
  in
  oneof
    [
      traces universe gen_ops;
      traces big_universe (gen_ops_in ~max_msg:200 big_universe);
    ]

let cow_tests =
  [
    qtest ~count:100 "overlay copy behaves exactly like a deep copy"
      gen_three_traces
      (fun (universe, base_ops, a_ops, b_ops) ->
        (* CoW world: one base, one copy, divergent mutations. *)
        let db = Token_db.create () and rdb = Ref_db.create () in
        apply_trace ~universe base_ops db rdb;
        let db_copy = Token_db.copy db in
        let rdb_copy = Ref_db.copy rdb in
        (* Copies of the growing side, taken between its growth steps,
           must keep what they held while it resizes on. *)
        let snapshots = ref [] in
        let after i =
          if i mod 8 = 7 then
            snapshots := (Token_db.copy db, Ref_db.copy rdb) :: !snapshots
        in
        apply_trace ~universe ~after a_ops db rdb;
        apply_trace ~universe b_ops db_copy rdb_copy;
        (* Each side must match a reference that was deep-copied, i.e.
           neither side's mutations may leak into the other. *)
        agree ~universe db rdb
        && agree ~universe db_copy rdb_copy
        && List.for_all (fun (s, r) -> agree ~universe s r) !snapshots
        && scores_agree db rdb
        && scores_agree db_copy rdb_copy);
    test_case "copy chains stay independent" (fun () ->
        let a = Token_db.create () in
        Token_db.train a Label.Spam [| "chain-s" |];
        let b = Token_db.copy a in
        let c = Token_db.copy b in
        Token_db.train b Label.Ham [| "chain-h" |];
        Token_db.untrain c Label.Spam [| "chain-s" |];
        check_int "a keeps its spam count" 1 (Token_db.spam_count a "chain-s");
        check_int "a has no ham" 0 (Token_db.ham_count a "chain-h");
        check_int "b keeps both" 1 (Token_db.ham_count b "chain-h");
        check_int "b keeps spam" 1 (Token_db.spam_count b "chain-s");
        check_int "c emptied" 0 (Token_db.spam_count c "chain-s");
        check_int "c distinct" 0 (Token_db.distinct_tokens c);
        check_int "a nspam" 1 (Token_db.nspam a);
        check_int "c nspam" 0 (Token_db.nspam c));
    test_case "mutating the original never leaks into an earlier copy"
      (fun () ->
        let base = Token_db.create () in
        Token_db.train base Label.Ham [| "leak-x"; "leak-y" |];
        let snapshot = Token_db.copy base in
        let bytes_before = save_string snapshot in
        Token_db.train_many base Label.Spam [| "leak-x"; "leak-z" |] 7;
        Token_db.untrain base Label.Ham [| "leak-x"; "leak-y" |];
        check_str "snapshot bytes unchanged" bytes_before
          (save_string snapshot);
        check_int "snapshot ham intact" 1
          (Token_db.ham_count snapshot "leak-x"));
  ]

let () =
  Alcotest.run "spamlab_intern"
    [
      ("intern", intern_tests);
      ("ranks", rank_tests);
      ("resolve", resolve_tests);
      ("radix", radix_tests);
      ("untrain-duplicates", untrain_duplicate_tests);
      ("differential", differential_tests);
      ("cow", cow_tests);
    ]

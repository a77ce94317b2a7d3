(* Tests for the multi-tenant token store: the sharded backend must be
   observationally identical to the memory backend under arbitrary op
   interleavings (including forced evictions and reopen/replay), and
   its crash edges — torn journal tails, compactions interrupted
   between their two renames — must recover to the last committed
   state without losing or double-applying ops. *)

module Store = Spamlab_store.Store
module Token_db = Spamlab_spambayes.Token_db
module Label = Spamlab_spambayes.Label
module Intern = Spamlab_spambayes.Intern

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

(* Token counts by string, for fixtures: the oracle's lookup through
   [Intern.find], which never interns. *)
let spam_count = Spamlab_oracle.By_string.spam_count
let ham_count = Spamlab_oracle.By_string.ham_count

(* Fixture tokens, interned as the id entry points take them. *)
let ids_of = Intern.intern_array
(* Intern one whole string, through the slice entry point ingest uses. *)
let intern_id s = Intern.intern_sub s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Scaffolding. *)

let with_tmp_dir f =
  let dir = Filename.temp_file "spamlab_test" ".store" in
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

let messages =
  [|
    [| "cheap"; "pharmacy"; "deal" |];
    [| "meeting"; "agenda"; "friday" |];
    [| "cheap"; "flight"; "deal"; "now" |];
    [| "lunch"; "friday" |];
    [| "pharmacy"; "online"; "now" |];
    [| "quarterly"; "report"; "agenda" |];
    [| "deal"; "deal"; "deal" |];
    [| "hello"; "world" |];
  |]

let make_prior () =
  let db = Token_db.create () in
  Token_db.train_ids db Label.Spam (ids_of [| "cheap"; "pharmacy"; "viagra" |]);
  Token_db.train_ids db Label.Ham (ids_of [| "meeting"; "report"; "hello" |]);
  db

let open_exn ?prior config =
  match Store.open_store ?prior config with
  | Ok t -> t
  | Error e -> Alcotest.fail ("open_store: " ^ e)

let mem_config = { Store.default_config with Store.backend = `Memory }

(* Tiny geometry: 4 shards, 2 cached overlays total — almost every
   access under multiple users is a cold materialization, so the
   differential tests exercise evict/replay constantly. *)
let sharded_config dir =
  {
    Store.backend = `Sharded dir;
    shards = 4;
    cache = 2;
    compact_ratio = 4.0;
  }

let user u = Printf.sprintf "user-%d" u

(* Interpret a seed list as an op sequence that is valid by
   construction: untrain only ever targets a message the user has
   trained and not yet untrained. *)
type op = Train of string * Label.gold * string array * int
        | Untrain of string * Label.gold * string array

let ops_of_seeds ?(msgs = messages) ?(name = user) ~users seeds =
  let trained = Hashtbl.create 16 in
  let push u x =
    Hashtbl.replace trained u (x :: (try Hashtbl.find trained u with Not_found -> []))
  in
  List.filter_map
    (fun (a, b, c) ->
      let u = name (a mod users) in
      let msg = msgs.(b mod Array.length msgs) in
      let label = if b mod 2 = 0 then Label.Spam else Label.Ham in
      match c mod 4 with
      | 3 -> (
          match Hashtbl.find_opt trained u with
          | Some ((label, msg) :: rest) ->
              Hashtbl.replace trained u rest;
              Some (Untrain (u, label, msg))
          | _ ->
              push u (label, msg);
              Some (Train (u, label, msg, 1)))
      | k ->
          let k = 1 + (k mod 2) in
          for _ = 1 to k do
            push u (label, msg)
          done;
          Some (Train (u, label, msg, k)))
    seeds

(* A message's distinct tokens, interned, as the id forms take them
   ([Store.train] collapses duplicates itself). *)
let distinct_ids msg =
  ids_of (Array.of_list (List.sort_uniq String.compare (Array.to_list msg)))

let apply st = function
  | Train (u, label, msg, 1) -> Store.train st ~user:u label msg
  | Train (u, label, msg, k) ->
      Store.train_many_ids st ~user:u label (distinct_ids msg) k
  | Untrain (u, label, msg) -> Store.untrain_ids st ~user:u label (distinct_ids msg)

let snapshot st u = Store.with_user st u Token_db.to_string

(* Byte-compare every user's effective database across two stores. *)
let check_equal ~users what a b =
  for i = 0 to users - 1 do
    check_string
      (Printf.sprintf "%s: %s" what (user i))
      (snapshot a (user i)) (snapshot b (user i))
  done

let seeds_gen =
  QCheck.(list_of_size Gen.(int_range 1 60) (triple small_nat small_nat small_nat))

(* ------------------------------------------------------------------ *)
(* Differential properties: sharded == memory. *)

let differential_tests =
  let users = 5 in
  let prop_live seeds =
    with_tmp_dir @@ fun dir ->
    let ops = ops_of_seeds ~users seeds in
    let mem = open_exn ~prior:(make_prior ()) mem_config in
    let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
    Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
    List.iter (fun op -> apply mem op; apply sh op) ops;
    check_equal ~users "live" mem sh;
    (* Unknown users see exactly the shared prior on both backends. *)
    check_string "unknown user = prior"
      (snapshot mem "nobody") (snapshot sh "nobody");
    true
  in
  let prop_reopen seeds =
    with_tmp_dir @@ fun dir ->
    let ops = ops_of_seeds ~users seeds in
    let mem = open_exn ~prior:(make_prior ()) mem_config in
    let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
    List.iter (fun op -> apply mem op; apply sh op) ops;
    Store.close sh;
    (* Reopen reads the persisted prior and replays the journals; the
       ?prior argument must be ignored on an existing store. *)
    let sh = open_exn ~prior:(Token_db.create ()) (sharded_config dir) in
    Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
    check_equal ~users "reopened" mem sh;
    (match Store.verify_dir dir with
    | Error e -> Alcotest.fail ("verify_dir: " ^ e)
    | Ok r ->
        List.iter
          (fun (s : Store.shard_report) ->
            check_bool "segment ok" true
              (match s.Store.segment with `Ok | `Missing -> true | _ -> false);
            check_bool "journal clean" true
              (match s.Store.journal with
              | `Ok _ | `Missing -> true
              | _ -> false))
          r.Store.shard_reports);
    true
  in
  let prop_compacted seeds =
    with_tmp_dir @@ fun dir ->
    let ops = ops_of_seeds ~users seeds in
    let mem = open_exn ~prior:(make_prior ()) mem_config in
    let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
    List.iter (fun op -> apply mem op; apply sh op) ops;
    Store.compact_all sh;
    Store.close sh;
    let sh = open_exn (sharded_config dir) in
    Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
    check_equal ~users "compacted" mem sh;
    true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30 ~name:"sharded == memory (live, tiny cache)"
         seeds_gen prop_live);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30 ~name:"sharded == memory (close + reopen)"
         seeds_gen prop_reopen);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"sharded == memory (compact_all + reopen)" seeds_gen
         prop_compacted);
  ]

(* ------------------------------------------------------------------ *)
(* Segment bytes against a reference renderer. *)

(* Tokens and users carrying every byte the line format escapes, the
   empty token, and a duplicated token. *)
let nasty_messages =
  [|
    [| ""; "tab\there"; "plain" |];
    [| "cr\rhere"; "nl\nhere"; "back\\slash" |];
    [| "plain"; ""; "back\\slash"; "\\t-literal" |];
    [| "tab\there"; "tab\there"; "nl\nhere" |];
    [| "zz"; "cr\rhere" |];
  |]

let nasty_users = [| "user-0"; "tab\tuser"; "back\\slash-user"; "nl\nuser" |]

let make_nasty_prior () =
  let db = Token_db.create () in
  Token_db.train_ids db Label.Spam (ids_of [| "plain"; "tab\there" |]);
  Token_db.train_ids db Label.Ham (ids_of [| ""; "nl\nhere"; "zz" |]);
  db

(* Bitwise CRC-32, independent of the table-driven one in the library. *)
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

let escape tok =
  String.concat ""
    (List.map
       (function
         | '\\' -> "\\\\"
         | '\t' -> "\\t"
         | '\n' -> "\\n"
         | '\r' -> "\\r"
         | c -> String.make 1 c)
       (List.of_seq (String.to_seq tok)))

(* The block compaction must write for [user]: its totals line, then
   every token whose counts differ from the prior's, sorted with
   [String.compare] and rendered with [Printf]; [None] when the user
   does not diverge at all. *)
let reference_block ~prior db user =
  let tokens d =
    Token_db.fold (fun acc id ~spam:_ ~ham:_ -> Intern.to_string id :: acc) [] d
  in
  let counts d tok = (spam_count d tok, ham_count d tok) in
  let rows =
    List.sort_uniq String.compare (tokens db @ tokens prior)
    |> List.filter (fun tok -> counts db tok <> counts prior tok)
  in
  let nspam = Token_db.nspam db and nham = Token_db.nham db in
  if rows = [] && nspam = Token_db.nspam prior && nham = Token_db.nham prior
  then None
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "u\t%s\t%d\t%d\t%d\n" (escape user) nspam nham
      (List.length rows);
    List.iter
      (fun tok ->
        let spam, ham = counts db tok in
        Printf.bprintf b "%s\t%d\t%d\n" (escape tok) spam ham)
      rows;
    Some (Buffer.contents b)
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Every user block of every segment in [dir], as its bytes. *)
let segment_blocks dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.concat_map (fun f ->
         let lines =
           String.split_on_char '\n' (read_file (Filename.concat dir f))
         in
         let rec blocks acc = function
           | uline :: rest when String.starts_with ~prefix:"u\t" uline ->
               let nrows =
                 int_of_string (List.nth (String.split_on_char '\t' uline) 4)
               in
               let rows = List.filteri (fun i _ -> i < nrows) rest in
               let block =
                 String.concat "" (List.map (fun l -> l ^ "\n") (uline :: rows))
               in
               blocks (block :: acc) (List.filteri (fun i _ -> i >= nrows) rest)
           | _ -> acc
         in
         blocks [] (List.tl lines))

let segment_tests =
  let runs = ref 0 in
  let prop seeds =
    with_tmp_dir @@ fun dir ->
    (* Odd-length tokens get a suffix no earlier run used, and the
       intern table freezes halfway through the trace: the compacted
       rows mix rank-ordered ids with ids interned after the freeze. *)
    incr runs;
    let late tok =
      if String.length tok mod 2 = 1 then Printf.sprintf "%s\x01run%d" tok !runs
      else tok
    in
    let msgs = Array.map (Array.map late) nasty_messages in
    let ops =
      ops_of_seeds ~msgs ~name:(Array.get nasty_users)
        ~users:(Array.length nasty_users) seeds
    in
    let mem = open_exn ~prior:(make_nasty_prior ()) mem_config in
    let sh = open_exn ~prior:(make_nasty_prior ()) (sharded_config dir) in
    Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
    List.iteri
      (fun i op ->
        if i = List.length ops / 2 then Spamlab_spambayes.Intern.freeze ();
        apply mem op;
        apply sh op)
      ops;
    Store.compact_all sh;
    let want =
      Array.to_list nasty_users
      |> List.filter_map (fun u ->
             Store.with_user mem u (fun db ->
                 reference_block ~prior:(Store.prior mem) db u))
      |> List.sort String.compare
    in
    Alcotest.(check (list string))
      "compacted user blocks" want
      (List.sort String.compare (segment_blocks dir));
    true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"segment blocks == reference renderer (escapes, late ids)"
         seeds_gen prop);
  ]

(* ------------------------------------------------------------------ *)
(* The id form journals exactly what the string form does. *)

(* Every byte the line format escapes, the empty token, a literal
   backslash-t, and bytes >= 0x80 (which sort after ASCII). *)
let id_form_vocab =
  [|
    ""; "tab\tin"; "cr\rin"; "nl\nin"; "back\\in"; "\\t-literal";
    "caf\xc3\xa9"; "\xff\xfe"; "\x80"; "plain"; "zz"; "a b";
  |]

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let id_form_tests =
  let runs = ref 0 in
  let prop seeds =
    incr runs;
    let rng = Random.State.make [| !runs; Hashtbl.hash seeds |] in
    let shuffle a =
      let a = Array.copy a in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      a
    in
    (* Even positions are interned before the freeze; odd ones get a
       suffix no earlier run used and are interned after it, in
       shuffled order, so [Intern.byte_order] byte-compares them and
       their ids follow neither byte order nor the trace. *)
    let vocab =
      Array.mapi
        (fun i tok ->
          if i mod 2 = 1 then Printf.sprintf "%s\x01id%d" tok !runs else tok)
        id_form_vocab
    in
    let half r =
      Array.of_list (List.filteri (fun i _ -> i mod 2 = r) (Array.to_list vocab))
    in
    let prior () =
      let db = Token_db.create () in
      Token_db.train_ids db Label.Spam (ids_of [| vocab.(0); vocab.(2) |]);
      Token_db.train_ids db Label.Ham (ids_of [| vocab.(4); vocab.(10) |]);
      db
    in
    ignore (Intern.intern_array (half 0));
    Intern.freeze ();
    ignore (Intern.intern_array (shuffle (half 1)));
    (* Messages as the tokenizers hand them over: distinct, sorted. *)
    let msgs =
      Array.init 6 (fun _ ->
          Array.to_list vocab
          |> List.filter (fun _ -> Random.State.bool rng)
          |> List.sort_uniq String.compare |> Array.of_list)
    in
    let ops =
      ops_of_seeds ~msgs ~users:3 seeds
      |> List.concat_map (function
           | Train (u, label, msg, k) ->
               List.init k (fun _ -> Train (u, label, msg, 1))
           | op -> [ op ])
    in
    with_tmp_dir @@ fun sdir ->
    with_tmp_dir @@ fun idir ->
    let config dir = { (sharded_config dir) with Store.compact_ratio = 1e9 } in
    let by_string = open_exn ~prior:(prior ()) (config sdir) in
    let by_id = open_exn ~prior:(prior ()) (config idir) in
    let ids msg = shuffle (Intern.intern_array msg) in
    List.iter
      (fun op ->
        apply by_string op;
        match op with
        | Train (u, label, msg, _) -> Store.train_ids by_id ~user:u label (ids msg)
        | Untrain (u, label, msg) -> Store.untrain_ids by_id ~user:u label (ids msg))
      ops;
    Store.commit by_string;
    Store.commit by_id;
    let same what =
      Alcotest.(check (list (pair string string))) what (dir_files sdir)
        (dir_files idir)
    in
    same "journals";
    Store.compact_all by_string;
    Store.compact_all by_id;
    same "compacted store";
    for u = 0 to 2 do
      check_string "overlay" (snapshot by_string (user u)) (snapshot by_id (user u))
    done;
    Store.close by_string;
    Store.close by_id;
    true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"id form journals, compacts and replays as the string form"
         seeds_gen prop);
  ]

(* ------------------------------------------------------------------ *)
(* Crash edges. *)

let journal_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".journal")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let train_all st =
  Array.iteri
    (fun i msg ->
      Store.train st ~user:(user (i mod 3))
        (if i mod 2 = 0 then Label.Spam else Label.Ham)
        msg)
    messages

let crash_tests =
  [
    test_case "torn journal tail is truncated to the last commit" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        train_all sh;
        Store.commit sh;
        let committed = List.map (fun u -> snapshot sh (user u)) [ 0; 1; 2 ] in
        Store.close sh;
        (* A crash mid-append leaves garbage past the last commit
           marker: a half-written record and trailing junk. *)
        List.iter
          (fun j ->
            write_file j
              (read_file j ^ "T\tuser-0\ts\t1\tcheap\tcrc=deadbeef\nT\tgarb"))
          (journal_files dir);
        (match Store.verify_dir dir with
        | Error e -> Alcotest.fail ("verify_dir: " ^ e)
        | Ok r ->
            check_bool "verify reports torn journals" true
              (List.exists
                 (fun (s : Store.shard_report) ->
                   match s.Store.journal with `Torn _ -> true | _ -> false)
                 r.Store.shard_reports));
        let sh = open_exn (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        List.iteri
          (fun u before ->
            check_string "recovers last committed state" before
              (snapshot sh (user u)))
          committed);
    test_case "stale journal after crash-mid-compaction is discarded"
      (fun () ->
        with_tmp_dir @@ fun dir ->
        (* High ratio: commit leaves the ops in the journal. *)
        let cfg = { (sharded_config dir) with Store.compact_ratio = 1e9 } in
        let sh = open_exn ~prior:(make_prior ()) cfg in
        train_all sh;
        Store.commit sh;
        let pre = List.map (fun j -> (j, read_file j)) (journal_files dir) in
        Store.compact_all sh;
        let committed = List.map (fun u -> snapshot sh (user u)) [ 0; 1; 2 ] in
        Store.close sh;
        (* Simulate a compaction that crashed after renaming the new
           segment but before renaming the fresh journal: the old
           journal (whose ops the new segment already contains) is
           still on disk.  Its header CRC no longer matches the
           segment, so replaying it would double-apply every op. *)
        List.iter (fun (j, data) -> write_file j data) pre;
        (match Store.verify_dir dir with
        | Error e -> Alcotest.fail ("verify_dir: " ^ e)
        | Ok r ->
            check_bool "verify reports stale journals" true
              (List.exists
                 (fun (s : Store.shard_report) -> s.Store.journal = `Stale)
                 r.Store.shard_reports));
        let sh = open_exn cfg in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        List.iteri
          (fun u want ->
            check_string "no double-apply" want (snapshot sh (user u)))
          committed);
    test_case "corrupt segment is flagged by verify_dir" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        train_all sh;
        Store.compact_all sh;
        Store.close sh;
        let seg =
          (* The largest segment: big enough that a mid-file bit flip
             lands inside user data, not the header. *)
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".seg")
          |> List.map (Filename.concat dir)
          |> List.sort (fun a b ->
                 compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
          |> List.hd
        in
        let data = Bytes.of_string (read_file seg) in
        let mid = Bytes.length data / 2 in
        Bytes.set data mid
          (if Bytes.get data mid = 'x' then 'y' else 'x');
        write_file seg (Bytes.to_string data);
        match Store.verify_dir dir with
        | Error e -> Alcotest.fail ("verify_dir: " ^ e)
        | Ok r ->
            check_bool "verify reports a corrupt segment" true
              (List.exists
                 (fun (s : Store.shard_report) ->
                   match s.Store.segment with `Corrupt _ -> true | _ -> false)
                 r.Store.shard_reports));
    test_case "open and verify refuse a corrupt manifest for one reason"
      (fun () ->
        with_tmp_dir @@ fun dir ->
        Store.close (open_exn (sharded_config dir));
        List.iter
          (fun (bytes, reason) ->
            write_file (Filename.concat dir "manifest") bytes;
            (match Store.open_store (sharded_config dir) with
            | Ok _ -> Alcotest.failf "open_store took %S" bytes
            | Error e -> check_string ("open " ^ bytes) ("store: " ^ reason) e);
            match Store.verify_dir dir with
            | Ok _ -> Alcotest.failf "verify_dir took %S" bytes
            | Error e -> check_string ("verify " ^ bytes) reason e)
          [
            ("", "truncated manifest");
            ("spamlab-store 1 4", "truncated manifest");
            ("spamlab-store 2 4\n", "bad manifest");
            ("spamlab-store 1 0\n", "bad manifest");
            ("spamlab-store 1 10000\n", "bad manifest");
            ("spamlab-store 1 four\n", "bad manifest");
            ("spamlab-stor 1 4\n", "not a spamlab store directory");
            ("spamlab-store 1 4 extra\n", "not a spamlab store directory");
          ]);
  ]

(* A checksum field is exactly the [%08x] text of its value.  The
   stores below have one shard, so [verify_dir] reads one segment and
   one journal. *)
let one_shard_store dir =
  let cfg =
    { (sharded_config dir) with Store.shards = 1; compact_ratio = 1e9 }
  in
  let sh = open_exn ~prior:(make_prior ()) cfg in
  train_all sh;
  (sh, cfg)

let shard_report dir =
  match Store.verify_dir dir with
  | Error e -> Alcotest.fail ("verify_dir: " ^ e)
  | Ok { Store.shard_reports = [ r ]; _ } -> r
  | Ok _ -> Alcotest.fail "expected one shard"

let checksum_tests =
  [
    test_case "every bit flip of a segment footer is reported corrupt"
      (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh, _ = one_shard_store dir in
        Store.compact_all sh;
        Store.close sh;
        let seg = Filename.concat dir "shard-0000.seg" in
        let data = read_file seg in
        let footer = String.rindex_from data (String.length data - 2) '\n' + 1 in
        let crc = String.sub data (footer + 28) 8 in
        check_bool "the footer CRC has a hex letter to flip the case of" true
          (String.exists (fun c -> c >= 'a' && c <= 'f') crc);
        check_bool "intact" true ((shard_report dir).Store.segment = `Ok);
        for i = footer to String.length data - 1 do
          for bit = 0 to 7 do
            let b = Bytes.of_string data in
            Bytes.set b i (Char.chr (Char.code data.[i] lxor (1 lsl bit)));
            write_file seg (Bytes.to_string b);
            match (shard_report dir).Store.segment with
            | `Corrupt _ -> ()
            | _ -> Alcotest.failf "footer byte %d bit %d flipped: not corrupt" i bit
          done
        done);
    test_case "an upper-cased journal CRC is a CRC mismatch" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh, cfg = one_shard_store dir in
        Store.commit sh;
        Store.close sh;
        let j = Filename.concat dir "shard-0000.journal" in
        let data = read_file j in
        (* The first hex letter of a record's CRC field (past the
           header): one copy spells it upper-case, one as another letter,
           so another value. *)
        let rec find_letter i =
          let field = String.rindex_from data i '=' in
          if
            data.[i] >= 'a' && data.[i] <= 'f'
            && i - field <= 8
            && String.sub data (field - 3) 3 = "crc"
          then i
          else find_letter (i + 1)
        in
        let at = find_letter (String.index data '\n' + 1) in
        let with_char c = String.mapi (fun i x -> if i = at then c else x) data in
        let upper = with_char (Char.uppercase_ascii data.[at]) in
        let other = with_char (if data.[at] = 'a' then 'b' else 'a') in
        let outcome bytes =
          write_file j bytes;
          let report = (shard_report dir).Store.journal in
          let sh = open_exn cfg in
          Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
          (report, List.map (fun u -> snapshot sh (user u)) [ 0; 1; 2 ])
        in
        let mismatch = outcome other in
        check_bool "a mismatch is not ok" true
          (match fst mismatch with `Ok _ -> false | _ -> true);
        check_bool "upper case reads as the mismatch" true
          (outcome upper = mismatch));
  ]

(* ------------------------------------------------------------------ *)
(* Semantics details. *)

let semantics_tests =
  [
    test_case "train_many k then k untrains returns to the prior" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        let before = snapshot sh "alice" in
        Store.train_many_ids sh ~user:"alice" Label.Spam (distinct_ids messages.(0)) 3;
        for _ = 1 to 3 do
          Store.untrain_ids sh ~user:"alice" Label.Spam (distinct_ids messages.(0))
        done;
        check_string "round trip" before (snapshot sh "alice"));
    test_case "train_many_ids: k = 0 journals nothing, k < 0 is rejected"
      (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        let before = snapshot sh "alice" in
        let ids = distinct_ids messages.(0) in
        Store.train_many_ids sh ~user:"alice" Label.Spam ids 0;
        Alcotest.check_raises "negative"
          (Invalid_argument "Store.train_many_ids: negative count") (fun () ->
            Store.train_many_ids sh ~user:"alice" Label.Spam ids (-1));
        check_string "state untouched" before (snapshot sh "alice");
        check_int "nothing journaled" 0 (Store.stats sh).Store.journal_ops);
    test_case "untrain of a never-trained message mutates nothing" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        Store.train sh ~user:"alice" Label.Ham messages.(1);
        let before = snapshot sh "alice" in
        let ops_before = (Store.stats sh).Store.journal_ops in
        check_bool "raises" true
          (match
             Store.untrain_ids sh ~user:"alice" Label.Spam (distinct_ids messages.(0))
           with
          | () -> false
          | exception Invalid_argument _ -> true);
        check_string "state untouched" before (snapshot sh "alice");
        check_int "nothing journaled" ops_before
          (Store.stats sh).Store.journal_ops;
        Store.close sh;
        (* And nothing of it survives a reopen either. *)
        let sh = open_exn (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        check_string "disk untouched" before (snapshot sh "alice"));
    test_case "evict_all drops overlays without losing state" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        train_all sh;
        let want = List.map (fun u -> snapshot sh (user u)) [ 0; 1; 2 ] in
        Store.evict_all sh;
        check_int "cache empty" 0 (Store.stats sh).Store.cached;
        List.iteri
          (fun u w ->
            check_string "cold rematerialization" w (snapshot sh (user u)))
          want);
    test_case "stats counters move" (fun () ->
        with_tmp_dir @@ fun dir ->
        let sh = open_exn ~prior:(make_prior ()) (sharded_config dir) in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        (* 8 users through a 2-slot cache: evictions are forced. *)
        for i = 0 to 7 do
          Store.train sh ~user:(user i) Label.Spam messages.(i mod 8)
        done;
        let s = Store.stats sh in
        check_bool "ops journaled" true (s.Store.journal_ops >= 8);
        check_bool "bytes journaled" true (s.Store.journal_bytes > 0);
        check_bool "evictions under pressure" true (s.Store.evictions > 0));
    test_case "eviction drops the least recently used overlay" (fun () ->
        with_tmp_dir @@ fun dir ->
        let cfg = { (sharded_config dir) with Store.shards = 1 } in
        let sh = open_exn ~prior:(make_prior ()) cfg in
        Fun.protect ~finally:(fun () -> Store.close sh) @@ fun () ->
        let touch u = ignore (snapshot sh u) in
        (* a and b fill the 2-slot cache; a's hit makes b the oldest, so
           c evicts b, not a. *)
        List.iter touch [ "a"; "b"; "a"; "c"; "a" ];
        let s = Store.stats sh in
        check_int "hits" 2 s.Store.hits;
        check_int "misses" 3 s.Store.misses;
        check_int "evictions" 1 s.Store.evictions;
        touch "b";
        check_int "b was evicted" 4 (Store.stats sh).Store.misses);
    test_case "duplicate tokens collapse in order; journal bytes pinned"
      (fun () ->
        with_tmp_dir @@ fun dir ->
        let cfg =
          { (sharded_config dir) with Store.shards = 1; compact_ratio = 1e9 }
        in
        let sh = open_exn cfg in
        Store.train sh ~user:"alice" Label.Spam [| "b"; "a"; "b"; "c"; "a" |];
        Store.train sh ~user:"alice" Label.Ham [| "a"; "b"; "c" |];
        Store.train_many_ids sh ~user:"alice" Label.Spam
          (Intern.intern_array [| "tab\tx"; "" |])
          2;
        Store.with_user sh "alice" (fun db ->
            check_int "a duplicate counts once" 1 (spam_count db "b");
            check_int "once per message of k" 2
              (spam_count db "tab\tx"));
        Store.close sh;
        let record fields =
          let prefix = String.concat "\t" fields ^ "\t" in
          Printf.sprintf "%scrc=%08x\n" prefix (crc32 prefix)
        in
        check_string "journal bytes"
          (String.concat ""
             [
               "spamlab-store-journal 1 0 1 seg_crc=00000000\n";
               record [ "T"; "alice"; "s"; "1"; "a"; "b"; "c" ];
               record [ "T"; "alice"; "h"; "1"; "a"; "b"; "c" ];
               record [ "T"; "alice"; "s"; "2"; ""; "tab\\tx" ];
               record [ "C" ];
             ])
          (read_file (Filename.concat dir "shard-0000.journal")));
    test_case "is_store_dir sniffs manifests only" (fun () ->
        with_tmp_dir @@ fun dir ->
        check_bool "plain dir" false (Store.is_store_dir dir);
        let sh = open_exn (sharded_config dir) in
        Store.close sh;
        check_bool "store dir" true (Store.is_store_dir dir));
  ]

(* ------------------------------------------------------------------ *)
(* User blocks: the row scanner against the line-splitting reader. *)

module Lines = Spamlab_oracle.Db_lines

let block_salts = ref 0

(* A user block: its [u] line (sometimes bad, sometimes counting more
   or fewer rows than follow), rows with count fields in every form,
   and sometimes a torn last line.  Salted tokens are new to the
   table; the rest include the prior's, so a 0/0 row zeroes one. *)
let block_gen =
  let open QCheck2.Gen in
  let field = oneofl [ "0"; "1"; "2"; "7"; "+5"; "0x1f"; "1_0"; "-0"; "-1"; ""; "x";
                       "12345678901234567890" ] in
  let token = oneofl [ "cheap"; "deal"; "friday"; ""; "a\\tb"; "bad\\q"; "\xe9"; "new" ] in
  let row =
    frequency
      [ (8, map4 (fun salted tok s h -> (salted, Printf.sprintf "%s\t%s\t%s" tok s h))
              bool token field field);
        (1, pure (false, "bad row"));
        (1, pure (false, "a\tb\tc\td")) ]
  in
  let* rows = list_size (int_range 0 6) row in
  let* extra = frequency [ (6, pure 0); (1, pure 1); (1, pure (-1)) ] in
  let* uline =
    frequency
      [ (8, pure (fun n -> Printf.sprintf "u\tann\t3\t2\t%d" n));
        (1, pure (fun _ -> "u\tann\tx\t2\t1")) ]
  in
  let* torn = frequency [ (6, pure false); (1, pure true) ] in
  pure (rows, extra, uline, torn)

let render_block ~salt (rows, extra, uline, torn) =
  let lines =
    uline (max 0 (List.length rows + extra))
    :: List.map (fun (salted, r) -> (if salted then salt else "") ^ r) rows
  in
  let s = String.concat "\n" lines in
  if torn then s else s ^ "\n"

let block_prior () =
  let db = Token_db.create () in
  Token_db.train_ids db Label.Spam (ids_of [| "cheap"; "deal" |]);
  Token_db.train_ids db Label.Ham (ids_of [| "friday"; "deal" |]);
  db

let apply_result f db = match f db with () -> Ok () | exception Sys_error e -> Error e

let block_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"apply_block matches the line reader"
         ~print:(fun b -> Printf.sprintf "%S" (render_block ~salt:"" b))
         block_gen
         (fun b ->
           incr block_salts;
           let block = render_block ~salt:(Printf.sprintf "b%d~" !block_salts) b in
           let prior = block_prior () in
           (* A dry run of the oracle: what it would set and intern. *)
           let totals = ref None and rows = ref [] in
           let want =
             apply_result
               (fun () ->
                 Lines.apply_block
                   ~set_totals:(fun ~nspam ~nham -> totals := Some (nspam, nham))
                   ~set_row:(fun tok ~spam ~ham -> rows := (tok, spam, ham) :: !rows)
                   block)
               ()
           in
           let unseen =
             List.length
               (List.sort_uniq String.compare
                  (List.filter_map
                     (fun (tok, _, _) -> if Intern.find tok = None then Some tok else None)
                     !rows))
           in
           let got_db = Token_db.copy prior in
           let before = Intern.size () in
           let got = apply_result (Store.apply_block got_db) block in
           check_int "interned" unseen (Intern.size () - before);
           let want_db = Token_db.copy prior in
           Option.iter
             (fun (nspam, nham) -> Token_db.set_message_counts want_db ~nspam ~nham)
             !totals;
           List.iter
             (fun (tok, spam, ham) -> Token_db.set_counts_id want_db (intern_id tok) ~spam ~ham)
             (List.rev !rows);
           (match (want, got) with
           | Ok (), Ok () -> ()
           | Error w, Error g -> check_string "error" w g
           | _ -> Alcotest.fail "apply_block and the oracle disagree on acceptance");
           check_string "db bytes" (Token_db.to_string want_db) (Token_db.to_string got_db);
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Journal commits that fail.                                          *)

module Journal = Spamlab_spambayes.Journal

(* A journal's bytes after two commits, the second over records that
   were partly flushed before it.  With [fault], that second commit
   first fails at the armed site and is retried. *)
let journal_bytes ?fault () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "shard.journal" in
  let j =
    Result.get_ok
      (Journal.open_ ~create:true ~ident:"spamlab-test-journal 1" ~base_crc:7 path)
  in
  let append user words =
    ignore (Journal.append j ~user (Journal.of_ids `Train Label.Spam (ids_of words)))
  in
  append "alice" [| "cheap"; "deal" |];
  Journal.commit j;
  append "bob" [| "meeting"; "agenda" |];
  Journal.flush j;
  append "alice" [| "pharmacy"; "now" |];
  append "carol" [| "lunch" |];
  let buffered = Journal.buffered j in
  Option.iter
    (fun spec ->
      Result.get_ok (Spamlab_fault.configure spec);
      Fun.protect ~finally:Spamlab_fault.disable (fun () ->
          match Journal.commit j with
          | () -> Alcotest.failf "%s: the commit did not fail" spec
          | exception Spamlab_fault.Injected _ -> ());
      check_int (spec ^ ": records stay buffered exactly once") buffered
        (Journal.buffered j))
    fault;
  Journal.commit j;
  check_int "a commit leaves nothing buffered" 0 (Journal.buffered j);
  Journal.close j;
  In_channel.with_open_bin path In_channel.input_all

let journal_tests =
  [
    test_case "a commit failing at write or fsync retries to the same bytes"
      (fun () ->
        let clean = journal_bytes () in
        List.iter
          (fun spec ->
            check_string (spec ^ ": journal bytes after the retry") clean
              (journal_bytes ~fault:spec ()))
          [ "journal.write:fatal@1"; "journal.fsync:fatal@1" ]);
  ]

let () =
  Alcotest.run "store"
    [
      ("journal", journal_tests);
      ("differential", differential_tests);
      ("segment", segment_tests);
      ("id form", id_form_tests);
      ("crash", crash_tests);
      ("checksums", checksum_tests);
      ("semantics", semantics_tests);
      ("blocks", block_tests);
    ]

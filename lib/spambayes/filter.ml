type t = {
  options : Options.t;
  tokenizer : Spamlab_tokenizer.Tokenizer.t;
  db : Token_db.t;
  (* Per-filter probability cache over (options, db).  Training
     invalidates it implicitly via the db generation counter; the
     functional updates below rebuild it because a cache binds one
     (options, db) pair.  Private (single-domain) — every pool
     worker builds its own filter. *)
  cache : Prob_cache.t;
}

let make options tokenizer db =
  { options; tokenizer; db; cache = Prob_cache.create options db }

let create ?(options = Options.default)
    ?(tokenizer = Spamlab_tokenizer.Tokenizer.spambayes) () =
  make options tokenizer (Token_db.create ())

let options t = t.options
let set_options t options = make options t.tokenizer t.db
let tokenizer t = t.tokenizer
let db t = t.db
let copy t = make t.options t.tokenizer (Token_db.copy t.db)
let engine t = Classify.engine_cached t.cache

let features t msg = Spamlab_tokenizer.Tokenizer.unique_tokens t.tokenizer msg
let train_tokens t label tokens =
  Token_db.train_ids t.db label (Intern.intern_array tokens)

let train t label msg = train_tokens t label (features t msg)

let classify_ids t ids = Classify.score_engine (engine t) ids

(* Messages and raw mbox bytes ride the ingest path, scoring through
   the filter's cache; neither interns under options that keep unseen
   tokens out of δ(E).  A parsed message is explained, so the CLI and
   the examples can name its clues. *)
let classify t msg = Ingest.explain_message_engine (engine t) t.tokenizer msg
let classify_mbox t buf = Ingest.classify_mbox_engine (engine t) t.tokenizer buf

(* Crash-safe persistence through [Spamlab_io.atomic_write].  The two
   fault sites bracket the vulnerable window: [db.save.write] fires
   once, with the first half of the bytes in the temp file (a torn
   write), and [db.save.rename] after the temp file is durable but
   before it is published. *)
let write_db data path =
  Spamlab_io.atomic_write ~rename_site:"db.save.rename" path (fun oc ->
      let half = String.length data / 2 in
      output_substring oc data 0 half;
      flush oc;
      Spamlab_fault.check "db.save.write";
      output_substring oc data half (String.length data - half))

let save_file t path = write_db (Token_db.to_string t.db) path

(* ------------------------------------------------------------------ *)
(* The op journal beside a db file: [path ^ ".journal"], stamped with
   the CRC of the v3 file it applies over (0 for a missing or pre-v3
   file, which also counts as 0 bytes). *)

let journal_path path = path ^ ".journal"
let journal_ident = "spamlab-db-journal 1 db_crc"
let base_crc data = Option.value ~default:0 (Token_db.footer_crc data)

exception Bad_record of string

(* Apply one committed record, the line [data.[off .. off+len-1]]. *)
let apply_record db data ~off ~len =
  match Journal.parse_sub data off len with
  | `Op (_, op) -> (
      try Journal.apply db (Journal.intern op)
      with Invalid_argument e -> raise (Bad_record e))
  | `Commit | `Bad _ -> raise (Bad_record "unreadable record")

(* Apply the committed prefix of a journal matching [base_crc], read
   only; a stale, empty or header-torn journal is ignored, as the
   writer's open would discard it. *)
let apply_journal db path ~base_crc =
  match Spamlab_io.read_file (journal_path path) with
  | Error _ -> Ok ()
  | Ok data -> (
      match
        Journal.scan ~ident:journal_ident ~base_crc:(Some base_crc)
          ~on_op:(fun _ ~off ~len -> apply_record db data ~off ~len)
          data
      with
      | `Headless | `Stale | `Scanned _ -> Ok ()
      | `Corrupt e | (exception Bad_record e) -> Error (journal_path path ^ ": " ^ e))

let load_file ?(options = Options.default)
    ?(tokenizer = Spamlab_tokenizer.Tokenizer.spambayes) path =
  let ( let* ) = Result.bind in
  let* data = Spamlab_io.read_file path in
  let* db = Token_db.of_string data in
  let* () = apply_journal db path ~base_crc:(base_crc data) in
  Ok (make options tokenizer db)

let verify_journal path =
  match Spamlab_io.read_file (journal_path path) with
  | Error _ -> `Missing
  | Ok data ->
      let base_crc =
        match Spamlab_io.read_file path with
        | Error _ -> Some 0
        | Ok db when Result.is_ok (Token_db.verify_string db) -> Some (base_crc db)
        | Ok _ -> None
      in
      Journal.verify ~ident:journal_ident ~base_crc data

type journal = {
  j : Journal.t;
  db_path : string;
  mutable db_bytes : int; (* the v3 file's size; 0 when missing or pre-v3 *)
  mutable published : bool; (* a commit point has passed *)
}

(* One read and one scan of the journal: [Journal.open_] hands each
   committed record to [apply_record] as it goes. *)
let open_journal ?(options = Options.default)
    ?(tokenizer = Spamlab_tokenizer.Tokenizer.spambayes) path =
  let ( let* ) = Result.bind in
  let* data =
    if Sys.file_exists path then Result.map Option.some (Spamlab_io.read_file path)
    else Ok None
  in
  let* db = Option.fold ~none:(Ok (Token_db.create ())) ~some:Token_db.of_string data in
  let crc = Option.fold ~none:0 ~some:base_crc data in
  match
    Journal.open_ ~create:false ~ident:journal_ident ~base_crc:crc
      ~on_op:(fun jdata _ ~off ~len -> apply_record db jdata ~off ~len)
      (journal_path path)
  with
  | Error e | (exception Bad_record e) -> Error (journal_path path ^ ": " ^ e)
  | Ok j ->
      let db_bytes = if crc = 0 then 0 else String.length (Option.get data) in
      Ok (make options tokenizer db, { j; db_path = path; db_bytes; published = false })

let journal_op jr kind label ids =
  ignore (Journal.append jr.j ~user:"" (Journal.of_ids kind label ids))

(* Rewrite the db from [db] — the state the db and its committed
   journal hold — and reset the journal over it.  Between the rename
   and the reset the journal on disk is stale, so an open discards it
   and reads the same state from the db alone. *)
let fold jr db =
  let data = Token_db.to_string db in
  write_db data jr.db_path;
  jr.db_bytes <- String.length data;
  let crc = base_crc data in
  Journal.rebase jr.j ~base_crc:crc;
  Spamlab_fault.check "db.journal.fold";
  Journal.reset jr.j ~base_crc:crc

let commit_journal jr ~published =
  jr.published <- true;
  if Journal.buffered jr.j > 0 then begin
    if
      float_of_int (Journal.payload jr.j)
      > Journal.compact_ratio *. float_of_int (max 1 jr.db_bytes)
    then fold jr published;
    Journal.commit jr.j
  end

let close_journal jr ~published =
  if Journal.has_committed jr.j || (jr.published && jr.db_bytes = 0) then
    fold jr published;
  Journal.close jr.j

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

let train_tokens t label tokens = Token_db.train t.db label tokens
let train_tokens_many t label tokens k = Token_db.train_many t.db label tokens k
let untrain_tokens t label tokens = Token_db.untrain t.db label tokens
let train_ids t label ids = Token_db.train_ids t.db label ids
let untrain_ids t label ids = Token_db.untrain_ids t.db label ids

let train t label msg = train_tokens t label (features t msg)
let untrain t label msg = untrain_tokens t label (features t msg)

let train_corpus t examples =
  List.iter (fun (label, msg) -> train t label msg) examples

(* Per-message timing is detail-level: this is the hot path, and even
   with tracing on, a span per classified message would dominate the
   trace.  [Obs.detail] is a single flag read when observability is off,
   and only opted into via SPAMLAB_OBS_DETAIL=1. *)
let classify_tokens t tokens =
  if Spamlab_obs.Obs.detail () then
    Spamlab_obs.Obs.span "spambayes.classify" (fun () ->
        Classify.score_engine (engine t) (Intern.intern_array tokens))
  else Classify.score_engine (engine t) (Intern.intern_array tokens)

let classify_ids t ids =
  if Spamlab_obs.Obs.detail () then
    Spamlab_obs.Obs.span "spambayes.classify" (fun () ->
        Classify.score_engine (engine t) ids)
  else Classify.score_engine (engine t) ids

let classify t msg = classify_tokens t (features t msg)

(* Raw mbox classification rides the zero-copy ingest path, scoring
   through the filter's cache. *)
let classify_mbox t buf = Ingest.classify_mbox_engine (engine t) t.tokenizer buf

let token_score t token = Score.smoothed t.options t.db token

(* Crash-safe persistence: serialize, write to a sibling temp file,
   fsync, then atomically rename over the destination.  A crash at any
   point leaves either the old file or the new one — never a torn
   half-write — and the fsync-before-rename ordering means the rename
   can't land before the data it names.  The two fault sites bracket
   the vulnerable window: [db.save.write] fires mid-write (simulating
   a torn write to the temp file), [db.save.rename] fires after the
   temp file is durable but before it is published. *)
let save_file t path =
  let data = Token_db.to_string t.db in
  let tmp = path ^ ".tmp" in
  let write () =
    let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* Raw-descriptor writes through the shared short-write/EINTR
           loop; the two halves keep the db.save.write fault site in
           the middle of the byte stream. *)
        let half = String.length data / 2 in
        Spamlab_io.really_write_string fd data 0 half;
        Spamlab_fault.check "db.save.write";
        Spamlab_io.really_write_string fd data half (String.length data - half);
        Unix.fsync fd)
  in
  (match write () with
  | () -> ()
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
  Spamlab_fault.check "db.save.rename";
  Sys.rename tmp path;
  (* Make the rename itself durable.  Directory fsync is not portable
     everywhere, so failure to open or sync the directory is not an
     error — the data file itself is already synced. *)
  match Unix.openfile (Filename.dirname path) [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dirfd)
        (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())

let load_file ?(options = Options.default)
    ?(tokenizer = Spamlab_tokenizer.Tokenizer.spambayes) path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Result.map (fun db -> make options tokenizer db) (Token_db.load ic))

module Sb = Spamlab_spambayes
module Token_db = Sb.Token_db
module Intern = Sb.Intern
module Label = Sb.Label
module Options = Sb.Options
module Classify = Sb.Classify
module Prob_cache = Sb.Prob_cache
module Journal = Sb.Journal
module Fault = Spamlab_fault
module Metrics = Spamlab_obs.Metrics
module Io = Spamlab_io

type backend = [ `Memory | `Sharded of string ]

type config = {
  backend : backend;
  shards : int;
  cache : int;
  compact_ratio : float;
}

let default_config =
  {
    backend = `Memory;
    shards = 16;
    cache = 4096;
    compact_ratio = Journal.compact_ratio;
  }

(* ------------------------------------------------------------------ *)
(* On-disk dialect.  Every format here reuses the token-db v3
   conventions — escaped fields, tab separators, CRC-32 (IEEE) — so the
   whole tree speaks one dialect. *)

let manifest_magic = "spamlab-store"
let seg_magic = "spamlab-store-seg"
let seg_footer_prefix = "#spamlab-store-footer "
let manifest_path dir = Filename.concat dir "manifest"
let prior_path dir = Filename.concat dir "prior.db"

let seg_path dir s = Filename.concat dir (Printf.sprintf "shard-%04d.seg" s)

let jrn_path dir s =
  Filename.concat dir (Printf.sprintf "shard-%04d.journal" s)

(* 32-bit FNV-1a: the user-to-shard hash.  Process-independent and
   stable across runs, unlike interned ids. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

let read_file path = Result.to_option (Io.read_file path)

let next_line data pos =
  if pos >= String.length data then None
  else
    match String.index_from_opt data pos '\n' with
    | None -> None (* torn final line: treated as absent by all callers *)
    | Some nl -> Some (String.sub data pos (nl - pos), nl + 1)

(* A row line of [r]'s string at [pos]: what [next_line] would give,
   scanned in place.  [None] for the same torn or missing line. *)
let next_row r pos =
  if pos >= String.length r.Token_db.data then None
  else
    let row = Token_db.scan_row r ~verbatim:false pos in
    if r.eol >= String.length r.data then None else Some row

(* ------------------------------------------------------------------ *)
(* Shard state. *)

type extent = { e_off : int; e_len : int }

(* A cached overlay and the stamp of its last use. *)
type node = { n_db : Token_db.t; mutable n_used : int }

type shard = {
  sh_id : int;
  sh_lock : Mutex.t;
  mutable sh_inited : bool;
  sh_index : (string, extent) Hashtbl.t;
      (* user -> byte extent of its block in the segment *)
  sh_pending : (string, extent list ref) Hashtbl.t;
      (* user -> journal op extents, newest first *)
  mutable sh_jrn : Journal.t option; (* open once the shard is *)
  mutable sh_sfd : Unix.file_descr option;
  mutable sh_seg_crc : int; (* segment footer CRC (0 when absent) *)
  mutable sh_seg_len : int;
  sh_cache : (string, node) Hashtbl.t;
  mutable sh_uses : int; (* the last use stamp: one per hit or insert *)
}

type t = {
  cfg : config;
  dir : string option;
  t_nshards : int;
  cache_per_shard : int;
  t_prior : Token_db.t;
  (* Shared probability cache over the immutable global prior: every
     tenant engine scores its non-diverging tokens through this one
     cache (concurrently, across shards — safe because it is
     single-generation over a db nothing mutates). *)
  t_prior_cache : Prob_cache.t;
  shards : shard array;
  mem : (string, Token_db.t) Hashtbl.t;
  mem_lock : Mutex.t;
  metrics : Metrics.t;
}

let prior t = t.t_prior
let nshards t = t.t_nshards
let metrics t = t.metrics
let count t name n = Metrics.add (Metrics.counter t.metrics name) n

let fresh_shard id =
  {
    sh_id = id;
    sh_lock = Mutex.create ();
    sh_inited = false;
    sh_index = Hashtbl.create 64;
    sh_pending = Hashtbl.create 64;
    sh_jrn = None;
    sh_sfd = None;
    sh_seg_crc = 0;
    sh_seg_len = 0;
    sh_cache = Hashtbl.create 16;
    sh_uses = 0;
  }

(* LRU by use stamps (shard lock held): stamps are unique within a
   shard, so the oldest is the least recently used. *)
let use sh =
  sh.sh_uses <- sh.sh_uses + 1;
  sh.sh_uses

(* ------------------------------------------------------------------ *)
(* Segment parsing (open path: build the extent index and check the
   footer CRC; full invariant validation lives in [verify_dir]). *)

let seg_fail sh_id fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Sys_error (Printf.sprintf "store shard %d segment: %s" sh_id msg)))
    fmt

let parse_user_line line =
  match String.split_on_char '\t' line with
  | [ "u"; eu; ns; nh; nr ] -> (
      match
        ( Token_db.unescape_token eu,
          int_of_string_opt ns,
          int_of_string_opt nh,
          int_of_string_opt nr )
      with
      | Ok user, Some nspam, Some nham, Some nrows
        when nspam >= 0 && nham >= 0 && nrows >= 0 ->
          Some (user, nspam, nham, nrows)
      | _ -> None)
  | _ -> None

let parse_seg_header ~expect_shard ~expect_nshards line =
  match String.split_on_char ' ' line with
  | [ magic; v; sid; ns; nusers ] when magic = seg_magic -> (
      match
        ( int_of_string_opt v,
          int_of_string_opt sid,
          int_of_string_opt ns,
          int_of_string_opt nusers )
      with
      | Some 1, Some sid, Some ns, Some nusers
        when (expect_shard < 0 || sid = expect_shard)
             && (expect_nshards < 0 || ns = expect_nshards)
             && nusers >= 0 ->
          Ok (sid, ns, nusers)
      | Some 1, _, _, _ -> Error "header does not match shard/manifest"
      | _ -> Error "unsupported segment version or bad header")
  | _ -> Error "not a spamlab store segment"

let seg_footer ~crc ~users ~rows =
  Printf.sprintf "%scrc32=%08x users=%d rows=%d" seg_footer_prefix crc users rows

(* The footer exactly as [seg_footer] writes it, as for the db footer:
   [%x] alone also takes a case-flipped hex digit. *)
let parse_seg_footer line =
  match
    Scanf.sscanf_opt line "#spamlab-store-footer crc32=%x users=%d rows=%d%!"
      (fun crc users rows -> (crc, users, rows))
  with
  | Some (crc, users, rows) as f when line = seg_footer ~crc ~users ~rows -> f
  | _ -> None

(* Walk a segment's bytes, calling [on_user user nspam nham nrows off len
   rows_off] per user block ([off,len] spans the whole block, [rows_off]
   the first row line).  Returns (footer_crc, users, rows) after
   checking the footer against the walked bytes. *)
let walk_segment ~expect_shard ~expect_nshards data ~on_user =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match next_line data 0 with
  | None -> Error "truncated segment header"
  | Some (hdr, p0) -> (
      match parse_seg_header ~expect_shard ~expect_nshards hdr with
      | Error e -> Error e
      | Ok (_, _, nusers) ->
          let pos = ref p0 in
          let users = ref 0 and rows = ref 0 in
          let result = ref None in
          let err = ref None in
          (try
             while !result = None && !err = None do
               match next_line data !pos with
               | None -> err := Some "truncated segment: missing footer"
               | Some (line, nxt) ->
                   if String.starts_with ~prefix:seg_footer_prefix line then (
                     match parse_seg_footer line with
                     | None -> err := Some (Printf.sprintf "bad footer %S" line)
                     | Some (fcrc, fusers, frows) ->
                         if nxt <> String.length data then
                           err := Some "content after segment footer"
                         else if fusers <> !users || frows <> !rows then
                           err :=
                             Some
                               (Printf.sprintf
                                  "footer counts users=%d rows=%d, walked \
                                   %d/%d"
                                  fusers frows !users !rows)
                         else if fusers <> nusers then
                           err := Some "header/footer user count mismatch"
                         else if
                           fcrc
                           <> Token_db.crc_finish
                                (Token_db.crc_feed_sub Token_db.crc_init data 0
                                   !pos)
                         then
                           err :=
                             Some
                               "segment checksum mismatch: corrupted or \
                                truncated"
                         else result := Some (fcrc, fusers, frows))
                   else
                     match parse_user_line line with
                     | None ->
                         err := Some (Printf.sprintf "bad user line %S" line)
                     | Some (user, nspam, nham, nrows) ->
                         let ustart = !pos in
                         let rows_off = nxt in
                         let p = ref nxt in
                         for _ = 1 to nrows do
                           match String.index_from_opt data !p '\n' with
                           | Some nl -> p := nl + 1
                           | None -> failwith "truncated segment: missing row"
                         done;
                         on_user user nspam nham nrows ustart (!p - ustart)
                           rows_off;
                         incr users;
                         rows := !rows + nrows;
                         pos := !p
             done
           with Failure m -> err := Some m);
          (match (!result, !err) with
          | Some r, _ -> Ok r
          | None, Some e -> fail "%s" e
          | None, None -> fail "internal segment walk error"))

(* Parse one user block (the bytes of its extent) into an overlay.
   Every row is interned, zero counts included: a 0/0 row zeroes a
   token of the prior. *)
let apply_block db block =
  match next_line block 0 with
  | None -> raise (Sys_error "store: truncated user block")
  | Some (uline, p0) -> (
      match parse_user_line uline with
      | None -> raise (Sys_error "store: bad user block header")
      | Some (_, nspam, nham, nrows) ->
          Token_db.set_message_counts db ~nspam ~nham;
          let r = Token_db.rows block in
          let pos = ref p0 in
          for _ = 1 to nrows do
            match next_row r !pos with
            | None -> raise (Sys_error "store: truncated user block")
            | Some Row when r.spam >= 0 && r.ham >= 0 ->
                pos := r.eol + 1;
                Token_db.set_counts_id db
                  (Token_db.row_id Intern.intern_sub r)
                  ~spam:r.spam ~ham:r.ham
            | Some _ -> raise (Sys_error "store: bad row in user block")
          done)

(* ------------------------------------------------------------------ *)
(* Shard open: read the segment into an extent index, then open the
   journal over the segment's CRC ({!Journal.open_}: a stale journal —
   a compaction crashed between its two renames, so its ops already
   live in the segment — is reset, and a suffix past the last commit
   marker is truncated) and index its committed ops by user. *)

let jrn_ident ~shard ~nshards =
  Printf.sprintf "spamlab-store-journal 1 %d %d seg_crc" shard nshards

let init_shard t sh =
  if not sh.sh_inited then begin
    let dir = Option.get t.dir in
    let spath = seg_path dir sh.sh_id in
    (match read_file spath with
    | None ->
        sh.sh_seg_crc <- 0;
        sh.sh_seg_len <- 0
    | Some data -> (
        match
          walk_segment ~expect_shard:sh.sh_id ~expect_nshards:t.t_nshards data
            ~on_user:(fun user _ _ _ off len _ ->
              Hashtbl.replace sh.sh_index user { e_off = off; e_len = len })
        with
        | Error e -> seg_fail sh.sh_id "%s" e
        | Ok (crc, _, _) ->
            sh.sh_seg_crc <- crc;
            sh.sh_seg_len <- String.length data;
            sh.sh_sfd <- Some (Unix.openfile spath [ O_RDONLY ] 0)));
    let on_op _ user ~off ~len =
      let r =
        match Hashtbl.find_opt sh.sh_pending user with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace sh.sh_pending user r;
            r
      in
      r := { e_off = off; e_len = len } :: !r
    in
    match
      Journal.open_ ~create:true
        ~ident:(jrn_ident ~shard:sh.sh_id ~nshards:t.t_nshards)
        ~base_crc:sh.sh_seg_crc ~on_op (jrn_path dir sh.sh_id)
    with
    | Error e ->
        raise
          (Sys_error (Printf.sprintf "store shard %d journal: %s" sh.sh_id e))
    | Ok j ->
        sh.sh_jrn <- Some j;
        sh.sh_inited <- true
  end

let jrn sh = Option.get sh.sh_jrn

let pread fd off len =
  let buf = Bytes.create len in
  ignore (Unix.lseek fd off SEEK_SET);
  Io.really_read fd buf 0 len;
  Bytes.unsafe_to_string buf

(* Materialize a tenant: CoW copy of the shared prior (O(1): the prior
   is never written, so the copy takes its counts as the base both
   share), its segment block, then its journaled ops in order.  Never
   a full database copy. *)
let materialize t sh user =
  Journal.flush (jrn sh);
  let db = Token_db.copy t.t_prior in
  (match Hashtbl.find_opt sh.sh_index user with
  | Some e ->
      apply_block db (pread (Option.get sh.sh_sfd) e.e_off e.e_len)
  | None -> ());
  (match Hashtbl.find_opt sh.sh_pending user with
  | Some exts ->
      List.iter
        (fun e ->
          match Journal.parse_line (Journal.read (jrn sh) ~off:e.e_off ~len:e.e_len) with
          | `Op (_, op) -> Journal.apply db (Journal.intern op)
          | `Commit | `Bad _ ->
              raise
                (Sys_error
                   (Printf.sprintf
                      "store shard %d journal: unreadable record at %d"
                      sh.sh_id e.e_off)))
        (List.rev !exts)
  | None -> ());
  db

let evict_one t sh =
  let oldest = ref None and stamp = ref max_int in
  Hashtbl.iter
    (fun user n ->
      if n.n_used < !stamp then begin
        stamp := n.n_used;
        oldest := Some user
      end)
    sh.sh_cache;
  match !oldest with
  | None -> ()
  | Some user ->
      Fault.check "store.evict";
      Hashtbl.remove sh.sh_cache user;
      count t "store.evictions" 1

(* The cached overlay for [user], shard lock held. *)
let overlay t sh user =
  match Hashtbl.find_opt sh.sh_cache user with
  | Some n ->
      n.n_used <- use sh;
      count t "store.overlay_hits" 1;
      n.n_db
  | None ->
      count t "store.overlay_misses" 1;
      let db = materialize t sh user in
      if Hashtbl.length sh.sh_cache >= t.cache_per_shard then evict_one t sh;
      Hashtbl.replace sh.sh_cache user { n_db = db; n_used = use sh };
      db

(* ------------------------------------------------------------------ *)
(* Compaction: fold segment + journal into a fresh segment.  Two atomic
   renames — segment first, then a header-only journal stamped with the
   new segment's CRC.  A crash between them leaves a journal whose
   seg_crc no longer matches; the next open discards it (see
   [init_shard]).  The bytes are canonical: users sorted, rows sorted,
   no generation counters or timestamps, so independent runs that
   performed the same ops compact to identical files. *)

(* Append [user]'s block to [body] — its totals line, then a row for
   every token whose counts differ from the prior's — and return the
   row count.  A user that does not diverge from the prior at all (no
   row, same totals) appends nothing. *)
let add_user_block body prior db user =
  let nspam = Token_db.nspam db and nham = Token_db.nham db in
  let same_totals =
    nspam = Token_db.nspam prior && nham = Token_db.nham prior
  in
  Token_db.render_rows body ~capacity:(Token_db.overlay_size db)
    ~head:(fun nrows ->
      if nrows > 0 || not same_totals then begin
        Buffer.add_string body "u\t";
        Token_db.add_escaped body user;
        Printf.bprintf body "\t%d\t%d\t%d\n" nspam nham nrows
      end)
    (fun emit ->
      Token_db.iter_overlay
        (fun id ~spam ~ham ->
          if
            spam <> Token_db.spam_count_id prior id
            || ham <> Token_db.ham_count_id prior id
          then emit id ~spam ~ham)
        db)

let compact_shard t sh =
  Fault.check "store.compact";
  let j = jrn sh in
  Journal.flush j;
  let dir = Option.get t.dir in
  let users = Hashtbl.create (Hashtbl.length sh.sh_index) in
  Hashtbl.iter (fun u _ -> Hashtbl.replace users u ()) sh.sh_index;
  Hashtbl.iter (fun u _ -> Hashtbl.replace users u ()) sh.sh_pending;
  let sorted =
    List.sort String.compare (Hashtbl.fold (fun u () acc -> u :: acc) users [])
  in
  (* Blocks render straight into the body, sized for the old segment
     plus the journal being folded in; the header (which counts them)
     is known only afterwards, so extents are body-relative. *)
  let body = Buffer.create (4096 + sh.sh_seg_len + Journal.payload j) in
  let blocks = ref [] and rows_total = ref 0 in
  List.iter
    (fun user ->
      let db =
        match Hashtbl.find_opt sh.sh_cache user with
        | Some n -> n.n_db
        | None -> materialize t sh user
      in
      let off = Buffer.length body in
      let nrows = add_user_block body t.t_prior db user in
      if Buffer.length body > off then begin
        blocks := (user, off, Buffer.length body - off) :: !blocks;
        rows_total := !rows_total + nrows
      end)
    sorted;
  let nusers = List.length !blocks in
  let header =
    Printf.sprintf "%s 1 %d %d %d\n" seg_magic sh.sh_id t.t_nshards nusers
  in
  let crc =
    Token_db.crc_finish
      (Token_db.crc_feed_buffer
         (Token_db.crc_feed Token_db.crc_init header)
         body)
  in
  let footer = seg_footer ~crc ~users:nusers ~rows:!rows_total ^ "\n" in
  let spath = seg_path dir sh.sh_id in
  Io.atomic_write spath (fun oc ->
      output_string oc header;
      Buffer.output_buffer oc body;
      output_string oc footer);
  (* Window: new segment on disk, old journal (stale seg_crc) still in
     place — recovered by the staleness check on open. *)
  Journal.reset j ~base_crc:crc;
  Option.iter Unix.close sh.sh_sfd;
  sh.sh_sfd <- Some (Unix.openfile spath [ O_RDONLY ] 0);
  Hashtbl.reset sh.sh_index;
  let hlen = String.length header in
  List.iter
    (fun (u, off, len) ->
      Hashtbl.replace sh.sh_index u { e_off = hlen + off; e_len = len })
    !blocks;
  Hashtbl.reset sh.sh_pending;
  sh.sh_seg_crc <- crc;
  sh.sh_seg_len <-
    String.length header + Buffer.length body + String.length footer;
  count t "store.compactions" 1

let over_ratio t sh =
  float_of_int (Journal.payload (jrn sh))
  > t.cfg.compact_ratio *. float_of_int (max 1 sh.sh_seg_len)

let commit_shard t sh ~force_compact =
  Journal.commit (jrn sh);
  if (force_compact && Journal.payload (jrn sh) > 0) || over_ratio t sh then
    compact_shard t sh

(* ------------------------------------------------------------------ *)
(* Public API. *)

(* Overlays currently cached, in the memory table and every shard. *)
let cached t =
  let n = ref (Mutex.protect t.mem_lock (fun () -> Hashtbl.length t.mem)) in
  Array.iter
    (fun sh ->
      Mutex.protect sh.sh_lock (fun () -> n := !n + Hashtbl.length sh.sh_cache))
    t.shards;
  !n

(* The manifest's shard count, [None] when there is no manifest.  The
   open path and [verify_dir] both read it here. *)
let read_manifest dir =
  match read_file (manifest_path dir) with
  | None -> Ok None
  | Some data -> (
      match next_line data 0 with
      | None -> Error "truncated manifest"
      | Some (line, _) -> (
          match String.split_on_char ' ' line with
          | [ magic; v; ns ] when magic = manifest_magic -> (
              match (int_of_string_opt v, int_of_string_opt ns) with
              | Some 1, Some ns when ns >= 1 && ns <= 9999 -> Ok (Some ns)
              | _ -> Error "bad manifest")
          | _ -> Error "not a spamlab store directory"))

let open_store ?(options = Options.default) ?prior cfg =
  let mk dir prior nshards =
    (* Cache and journal counts follow the interleaving of tenants over
       shards, so none of the store's metrics is deterministic. *)
    let metrics = Metrics.create () in
    List.iter
      (fun name -> ignore (Metrics.counter metrics ~deterministic:false name))
      [
        "store.compactions"; "store.evictions"; "store.journal_bytes";
        "store.journal_ops"; "store.overlay_hits"; "store.overlay_misses";
      ];
    let t =
      {
        cfg;
        dir;
        t_nshards = nshards;
        cache_per_shard = max 1 (cfg.cache / max 1 nshards);
        t_prior = prior;
        t_prior_cache = Prob_cache.create ~shared:true options prior;
        shards =
          (match dir with
          | None -> [||]
          | Some _ -> Array.init nshards fresh_shard);
        mem = Hashtbl.create 64;
        mem_lock = Mutex.create ();
        metrics;
      }
    in
    Metrics.gauge metrics ~deterministic:false "store.cached" (fun () -> cached t);
    t
  in
  match cfg.backend with
  | `Memory ->
      let prior =
        match prior with Some p -> p | None -> Token_db.create ()
      in
      Ok (mk None prior (max 1 cfg.shards))
  | `Sharded dir -> (
      if cfg.shards < 1 || cfg.shards > 9999 then
        Error "store: shards must be in 1..9999"
      else
        match read_manifest dir with
        | Error e -> Error ("store: " ^ e)
        | Ok (Some ns) -> (
            (* Reopen: the manifest and persisted prior win. *)
            match read_file (prior_path dir) with
            | None -> Error "store: missing prior.db"
            | Some pdata -> (
                match Token_db.of_string pdata with
                | Error e -> Error ("store prior.db: " ^ e)
                | Ok prior -> Ok (mk (Some dir) prior ns)))
        | Ok None -> (
            (* Create, including missing parents (a sweep writes
               dir/users-N before anything made dir). *)
            let rec mkdir_p d =
              if not (Sys.file_exists d) then begin
                let parent = Filename.dirname d in
                if parent <> d then mkdir_p parent;
                Unix.mkdir d 0o755
              end
            in
            match mkdir_p dir with
            | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) ->
                let prior =
                  match prior with Some p -> p | None -> Token_db.create ()
                in
                Io.atomic_write (prior_path dir) (fun oc ->
                    output_string oc (Token_db.to_string prior));
                Io.atomic_write (manifest_path dir) (fun oc ->
                    Printf.fprintf oc "%s 1 %d\n" manifest_magic cfg.shards);
                Ok (mk (Some dir) prior cfg.shards)
            | exception Unix.Unix_error (e, _, _) ->
                Error
                  (Printf.sprintf "store: cannot create %s: %s" dir
                     (Unix.error_message e))))

let shard_for t user = t.shards.(fnv1a user mod t.t_nshards)

let with_shard t user f =
  let sh = shard_for t user in
  Mutex.protect sh.sh_lock (fun () ->
      init_shard t sh;
      f sh)

let mem_overlay t user =
  match Hashtbl.find_opt t.mem user with
  | Some db ->
      count t "store.overlay_hits" 1;
      db
  | None ->
      count t "store.overlay_misses" 1;
      let db = Token_db.copy t.t_prior in
      Hashtbl.replace t.mem user db;
      db

let with_user t user f =
  match t.dir with
  | None -> Mutex.protect t.mem_lock (fun () -> f (mem_overlay t user))
  | Some _ -> with_shard t user (fun sh -> f (overlay t sh user))

(* The tenant scoring fast path: a fresh overlay engine per locked
   access (its totals comparison is hoisted at creation, so it must
   not outlive the lock), sharing the prior cache across all tenants
   and shards. *)
let with_user_engine t user f =
  with_user t user (fun db -> f (Classify.engine_overlay t.t_prior_cache db))

(* Buffered records auto-flush past this size so a commit-free bulk
   load (the tenants experiment trains 10^5 users before its first
   commit) does not hold the whole journal in memory. *)
let buf_flush_threshold = 1 lsl 20

let sharded_op t user op =
  with_shard t user (fun sh ->
      let db = overlay t sh user in
      Fault.check "store.journal.append";
      let j = jrn sh in
      let off, len = Journal.append j ~user op in
      let ext = { e_off = off; e_len = len - 1 } in
      let exts =
        match Hashtbl.find_opt sh.sh_pending user with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace sh.sh_pending user r;
            r
      in
      exts := ext :: !exts;
      (match Journal.apply db op with
      | () -> ()
      | exception exn ->
          (* An invalid op (e.g. untrain of a never-trained message)
             must leave disk state untouched too. *)
          Journal.unappend j ~off;
          (exts := match !exts with _ :: tl -> tl | [] -> []);
          if !exts = [] then Hashtbl.remove sh.sh_pending user;
          raise exn);
      count t "store.journal_ops" 1;
      count t "store.journal_bytes" len;
      if Journal.buffered j > buf_flush_threshold then Journal.flush j)

let mem_op t user op =
  Mutex.protect t.mem_lock (fun () -> Journal.apply (mem_overlay t user) op)

let run_op t user op =
  match t.dir with
  | None -> mem_op t user op
  | Some _ -> sharded_op t user op

(* Every record is built by [Journal.of_ids]: the tokens in byte order
   of their strings, so its bytes depend neither on id order nor on
   interning order. *)
let train_ids t ~user label ids =
  run_op t user (Journal.of_ids `Train label ids)

let train_many_ids t ~user label ids k =
  if k < 0 then invalid_arg "Store.train_many_ids: negative count";
  if k > 0 then run_op t user { (Journal.of_ids `Train label ids) with k }

let untrain_ids t ~user label ids =
  run_op t user (Journal.of_ids `Untrain label ids)

(* A message contributes each token once (SpamBayes counts messages
   containing a token, not occurrences), and the segment verifier's
   count-vs-totals invariant relies on it, so duplicates collapse. *)
let train t ~user label tokens =
  let ids = Intern.intern_array tokens in
  let n = Intern.sort_uniq ids (Array.length ids) in
  train_ids t ~user label (Array.sub ids 0 n)

let iter_inited_shards t f =
  Array.iter
    (fun sh -> Mutex.protect sh.sh_lock (fun () -> if sh.sh_inited then f sh))
    t.shards

let commit t =
  iter_inited_shards t (fun sh -> commit_shard t sh ~force_compact:false)

let compact_all t =
  match t.dir with
  | None -> ()
  | Some _ ->
      Array.iter
        (fun sh ->
          Mutex.protect sh.sh_lock (fun () ->
              init_shard t sh;
              commit_shard t sh ~force_compact:true))
        t.shards

let evict_all t =
  Mutex.protect t.mem_lock (fun () -> Hashtbl.reset t.mem);
  Array.iter
    (fun sh ->
      Mutex.protect sh.sh_lock (fun () -> Hashtbl.reset sh.sh_cache))
    t.shards

let close t =
  iter_inited_shards t (fun sh ->
      commit_shard t sh ~force_compact:false;
      Journal.close (jrn sh);
      sh.sh_jrn <- None;
      Option.iter Unix.close sh.sh_sfd;
      sh.sh_sfd <- None;
      sh.sh_inited <- false)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  journal_bytes : int;
  journal_ops : int;
  compactions : int;
  cached : int;
}

let stats t =
  let v name = Metrics.value t.metrics ("store." ^ name) in
  {
    hits = v "overlay_hits";
    misses = v "overlay_misses";
    evictions = v "evictions";
    journal_bytes = v "journal_bytes";
    journal_ops = v "journal_ops";
    compactions = v "compactions";
    cached = v "cached";
  }

(* ------------------------------------------------------------------ *)
(* Offline verification. *)

type shard_report = {
  shard : int;
  seg_users : int;
  seg_rows : int;
  segment : [ `Ok | `Missing | `Corrupt of string ];
  journal :
    [ `Ok of int
    | `Torn of int * int
    | `Stale
    | `Missing
    | `Corrupt of string ];
}

type dir_report = {
  dir_shards : int;
  dir_users : int;
  dir_rows : int;
  dir_ops : int;
  shard_reports : shard_report list;
  prior_ok : (Token_db.verify_report, string) result;
}

let is_store_dir dir =
  match read_file (manifest_path dir) with
  | None -> false
  | Some data -> String.starts_with ~prefix:(manifest_magic ^ " ") data

(* Full segment validation: everything the open path checks, plus the
   canonical-form invariants (strictly sorted users, strictly sorted
   rows, counts within the user's message totals). *)
let verify_segment ~shard ~nshards data =
  let last_user = ref "" in
  let first = ref true in
  let seen_crc = ref 0 in
  let check_user user nspam nham nrows rows_off =
    if (not !first) && String.compare !last_user user >= 0 then
      failwith (Printf.sprintf "users out of order at %S" user);
    first := false;
    last_user := user;
    let r = Token_db.rows data in
    let pos = ref rows_off in
    let last_tok = ref "" in
    let first_tok = ref true in
    for _ = 1 to nrows do
      match next_row r !pos with
      | None -> failwith "truncated rows"
      | Some Row ->
          pos := r.eol + 1;
          let tok = Token_db.row_token r in
          if r.spam < 0 || r.ham < 0 then
            failwith (Printf.sprintf "negative count for %S" tok);
          if r.spam > nspam || r.ham > nham then
            failwith
              (Printf.sprintf "count exceeds user message totals for %S" tok);
          if (not !first_tok) && String.compare !last_tok tok >= 0 then
            failwith (Printf.sprintf "rows out of order at %S" tok);
          first_tok := false;
          last_tok := tok
      | Some _ -> failwith (Printf.sprintf "bad row %S" (Token_db.row_line r))
    done
  in
  match
    walk_segment ~expect_shard:shard ~expect_nshards:nshards data
      ~on_user:(fun user nspam nham nrows _ _ rows_off ->
        check_user user nspam nham nrows rows_off)
  with
  | Ok (crc, users, rows) ->
      seen_crc := crc;
      Ok (crc, users, rows)
  | Error e -> Error e
  | exception Failure e -> Error e

let verify_dir dir =
  match read_manifest dir with
  | Error e -> Error e
  | Ok None -> Error (Printf.sprintf "%s: no store manifest" dir)
  | Ok (Some nshards) ->
      let reports =
        List.init nshards (fun s ->
            let seg_users = ref 0 and seg_rows = ref 0 in
            let seg_crc = ref None in
            let segment =
              match read_file (seg_path dir s) with
              | None ->
                  seg_crc := Some 0;
                  `Missing
              | Some data -> (
                  match verify_segment ~shard:s ~nshards data with
                  | Ok (crc, users, rows) ->
                      seg_crc := Some crc;
                      seg_users := users;
                      seg_rows := rows;
                      `Ok
                  | Error e -> `Corrupt e)
            in
            let journal =
              match read_file (jrn_path dir s) with
              | None -> `Missing
              | Some data ->
                  Journal.verify
                    ~ident:(jrn_ident ~shard:s ~nshards)
                    ~base_crc:!seg_crc data
            in
            { shard = s; seg_users = !seg_users; seg_rows = !seg_rows; segment; journal })
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
      let ops =
        sum (fun r -> match r.journal with `Ok n | `Torn (n, _) -> n | _ -> 0)
      in
      let prior_ok =
        match read_file (prior_path dir) with
        | None -> Error "missing prior.db"
        | Some data -> Token_db.verify_string data
      in
      Ok
        {
          dir_shards = nshards;
          dir_users = sum (fun r -> r.seg_users);
          dir_rows = sum (fun r -> r.seg_rows);
          dir_ops = ops;
          shard_reports = reports;
          prior_ok;
        }

module Tok = Spamlab_tokenizer.Tokenizer
module Message = Spamlab_email.Message
module Header = Spamlab_email.Header
module Rfc2822 = Spamlab_email.Rfc2822
module Obs = Spamlab_obs.Obs

let ingest_msgs = Obs.counter "ingest.msgs"
let ingest_bytes = Obs.counter "ingest.bytes"

(* ------------------------------------------------------------------ *)
(* One batch per message: the tokenizer's sinks append every token to
   the domain's {!Intern.keys} buffer, one {!Intern.resolve} (or
   {!Intern.lookup}) looks the whole message up, and {!Intern.sort_uniq}
   leaves the distinct ids ascending at the front of the resolved
   array.  The sinks are two closures per message; nothing is
   allocated per token.  [~intern:false] compacts the keys no table
   holds out before the dedup instead of interning them. *)

let ids_of_keys ~intern k f =
  let raw = Intern.key_count k in
  if intern then begin
    let ids = Intern.resolve k in
    f ids (Intern.sort_uniq ids raw) raw
  end
  else begin
    let ids = Intern.lookup k in
    let known = ref 0 in
    for i = 0 to raw - 1 do
      let id = Array.unsafe_get ids i in
      if id >= 0 then begin
        Array.unsafe_set ids !known id;
        incr known
      end
    done;
    f ids (Intern.sort_uniq ids !known) raw
  end

let count_msg bytes =
  if Obs.enabled () then begin
    Obs.incr ingest_msgs;
    Obs.add ingest_bytes bytes
  end

let ingest_message ~intern tokenizer msg f =
  let k = Intern.keys () in
  Tok.iter_message tokenizer msg ~span:(Intern.add_sub k) ~token:(Intern.add k);
  count_msg (Message.size_bytes msg);
  ids_of_keys ~intern k f

let with_unique_ids tokenizer msg f = ingest_message ~intern:true tokenizer msg f

(* ------------------------------------------------------------------ *)
(* Header-aware raw-mail ingestion.

   The suppression set follows SpamAssassin's $IGNORED_HDRS (Bayes.pm):
   headers that carry delivery bookkeeping, list-manager plumbing, or
   the output of other spam filters are noise to the learner and are
   dropped before tokenization.  Unlike SpamAssassin we keep the
   headers our tokenizers mine directly (Subject, From, To, Reply-To,
   Received, Content-Type, Content-Transfer-Encoding). *)

let ignored_headers =
  [
    "date";
    "message-id";
    "in-reply-to";
    "references";
    "mime-version";
    "sender";
    "errors-to";
    "precedence";
    "return-path";
    "delivered-to";
    "delivery-date";
    "envelope-to";
    "status";
    "x-status";
    "content-length";
    "lines";
    "x-uid";
    "thread-index";
    "content-class";
    "list-id";
    "list-post";
    "list-help";
    "list-subscribe";
    "list-unsubscribe";
    "list-archive";
    "list-owner";
    "mailing-list";
    "x-beenthere";
    "x-mailman-version";
    "x-mailing-list";
    "x-loop";
    "x-list-host";
    "x-spam-status";
    "x-spam-level";
    "x-spam-flag";
    "x-spam-report";
    "x-spam-score";
    "x-spam-hits";
    "x-spam-checker-version";
    "x-spam-prev-subject";
    "x-antispam";
    "x-rbl-warning";
    "x-mailscanner";
    "x-mailscanner-spamcheck";
    "x-virus-scanned";
    "x-pyzor";
    "x-dcc";
    "x-razor-id";
    "x-mime-autoconverted";
    "x-originalarrivaltime";
    "x-mdaemon-deliver-to";
    "x-scanned-by";
  ]

(* Case-insensitive match of a header-name slice against the ignored
   set, no allocation.  Header counts per message are small (and the
   set is ~50 entries), so a linear scan is cheaper than building a
   probing structure for slices. *)
let rec ignored_in s off len = function
  | [] -> false
  | lit :: rest -> Header.name_equal_sub s off len lit || ignored_in s off len rest

let ignored_slice s off len = ignored_in s off len ignored_headers

let ignored_header name = ignored_slice name 0 (String.length name)

(* ------------------------------------------------------------------ *)
(* Raw mbox scanning by offsets: message chunks are delimited by
   "From " separator lines, exactly as [Mbox.chunks_of] groups them,
   without splitting the buffer into line strings. *)

let iter_raw_messages ?(off = 0) ?len buf f =
  let n = match len with Some len -> off + len | None -> String.length buf in
  if off < 0 || off > n || n > String.length buf then
    invalid_arg "Ingest.iter_raw_messages";
  let flush start stop = if stop > start then f ~off:start ~len:(stop - start) in
  let rec go line_start chunk_start =
    if line_start >= n then flush chunk_start n
    else begin
      let nl = Rfc2822.line_end buf line_start n in
      if Rfc2822.from_at buf line_start n then begin
        flush chunk_start line_start;
        if nl < n then go (nl + 1) (nl + 1)
      end
      else if nl < n then go (nl + 1) chunk_start
      else flush chunk_start n
    end
  in
  (* [Mbox.parse_lenient] treats an all-whitespace mbox as empty; an
     early-exit scan avoids [String.trim]'s copy of the buffer. *)
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let rec blank i = i >= n || (is_ws buf.[i] && blank (i + 1)) in
  if not (blank off) then go off off

let raw_message_chunks ?off ?len buf =
  let acc = ref [] in
  iter_raw_messages ?off ?len buf (fun ~off ~len -> acc := (off, len) :: !acc);
  Array.of_list (List.rev !acc)

(* A fixed-up body goes to a per-domain scratch, so only a chunk with a
   line to fix is copied. *)
let fixup_scratch : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Bytes.empty)

(* The raw chunk [buf.[off .. off+len-1]] (one mbox message, separator
   excluded) read as [Mbox.parse_lenient] reads it: one trailing blank
   line dropped, the header block as [Rfc2822.scan_headers] reads it
   (suppressed fields cost no string; a malformed block drops the
   message), and the body handed to the tokenizer in place, or as its
   fixed-up copy when a line needs a fixup. *)
let iter_raw_spans tokenizer buf ~off ~len ~span ~token =
  (* Drop the trailing newline [Mbox.print] adds after each body. *)
  let stop = if len > 0 && buf.[off + len - 1] = '\n' then off + len - 1 else off + len in
  let fields = ref [] in
  let bstart =
    Rfc2822.scan_headers buf off stop
      ~want:(fun s off len -> not (ignored_slice s off len))
      (fun name value -> fields := (name, value) :: !fields)
  in
  bstart >= 0
  &&
  let scratch = Domain.DLS.get fixup_scratch in
  let room n =
    if Bytes.length !scratch < n then scratch := Bytes.create (2 * n);
    (!scratch, 0)
  in
  let fixed = Rfc2822.fixup_body ~unquote:true buf bstart stop ~room in
  let body, boff, blen =
    if fixed < 0 then (buf, bstart, stop - bstart)
    else (Bytes.unsafe_to_string !scratch, 0, fixed)
  in
  Tok.iter_spans tokenizer (Header.of_list (List.rev !fields)) body boff blen ~span ~token;
  true

let ingest_raw ~intern tokenizer buf ~off ~len f =
  let k = Intern.keys () in
  if iter_raw_spans tokenizer buf ~off ~len ~span:(Intern.add_sub k) ~token:(Intern.add k)
  then begin
    count_msg len;
    Some (ids_of_keys ~intern k f)
  end
  else None

let with_unique_ids_raw tokenizer buf ~off ~len f =
  ingest_raw ~intern:true tokenizer buf ~off ~len f

let unique_ids_raw tokenizer buf ~off ~len =
  with_unique_ids_raw tokenizer buf ~off ~len (fun ids n raw ->
      (Array.sub ids 0 n, raw))

(* ------------------------------------------------------------------ *)
(* Classification: one scratch buffer per domain across the whole
   batch, no per-message arrays.  Scoring looks tokens up unless the
   engine's options let a token with no counts be a clue; then it must
   be interned to score (and to name its clue), exactly as training
   would. *)

let scores_unseen e = Options.unknown_word_is_clue (Classify.engine_options e)

let classify_raw_engine e tokenizer buf ~off ~len =
  ingest_raw ~intern:(scores_unseen e) tokenizer buf ~off ~len
    (fun ids n _raw -> Classify.score_engine_sub e ids n)

let explain_message_engine e tokenizer msg =
  ingest_message ~intern:(scores_unseen e) tokenizer msg
    (fun ids n _raw -> Classify.explain e ids n)

let classify_mbox_engine e tokenizer buf =
  Array.map
    (fun (off, len) -> classify_raw_engine e tokenizer buf ~off ~len)
    (raw_message_chunks buf)

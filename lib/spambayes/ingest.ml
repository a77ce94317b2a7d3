module Tok = Spamlab_tokenizer.Tokenizer
module Message = Spamlab_email.Message
module Header = Spamlab_email.Header
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
  Tok.iter_spans tokenizer msg ~span:(Intern.add_sub k) ~token:(Intern.add k);
  count_msg (Message.size_bytes msg);
  ids_of_keys ~intern k f

let with_unique_ids tokenizer msg f = ingest_message ~intern:true tokenizer msg f

let unique_ids tokenizer msg =
  with_unique_ids tokenizer msg (fun ids n raw -> (Array.sub ids 0 n, raw))

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
   set, no allocation: length pre-filter then byte compare with ASCII
   folding.  Header counts per message are small (and the set is ~50
   entries), so a linear scan is cheaper than building a probing
   structure for slices. *)
let fold_lower c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c

let name_eq_sub s off len lit =
  String.length lit = len
  &&
  let i = ref 0 in
  while !i < len && fold_lower s.[off + !i] = lit.[!i] do
    incr i
  done;
  !i = len

let rec ignored_in s off len = function
  | [] -> false
  | lit :: rest -> name_eq_sub s off len lit || ignored_in s off len rest

let ignored_slice s off len = ignored_in s off len ignored_headers

let ignored_header name = ignored_slice name 0 (String.length name)

(* ------------------------------------------------------------------ *)
(* Raw mbox scanning by offsets: message chunks are delimited by
   "From " separator lines, exactly as [Mbox.chunks_of] groups them,
   without splitting the buffer into line strings. *)

let is_sep_at buf pos limit =
  pos + 5 <= limit
  && buf.[pos] = 'F'
  && buf.[pos + 1] = 'r'
  && buf.[pos + 2] = 'o'
  && buf.[pos + 3] = 'm'
  && buf.[pos + 4] = ' '

(* The offset of the '\n' ending the line that starts at [pos], or
   [stop] when none comes before it.  A loop, so scanning a body line
   by line allocates nothing. *)
let line_end buf pos stop =
  let i = ref pos in
  while !i < stop && String.unsafe_get buf !i <> '\n' do
    incr i
  done;
  !i

let iter_raw_messages buf f =
  let n = String.length buf in
  let flush start stop = if stop > start then f ~off:start ~len:(stop - start) in
  let rec go line_start chunk_start =
    if line_start >= n then flush chunk_start n
    else begin
      let nl = line_end buf line_start n in
      if is_sep_at buf line_start n then begin
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
  if not (blank 0) then go 0 0

let raw_message_chunks buf =
  let acc = ref [] in
  iter_raw_messages buf (fun ~off ~len -> acc := (off, len) :: !acc);
  Array.of_list (List.rev !acc)

(* A parsed raw chunk.  [Simple] is the zero-copy case — no MIME
   headers, no body fixups — where the body tokenizes straight from the
   mbox buffer.  [Complex] fell back to a materialized [Message.t]
   (still with ignored headers suppressed). *)
type parsed =
  | Simple of { fields : (string * string) list; body_off : int; body_len : int }
  | Complex of Message.t
  | Malformed

let needs_unquote_at buf pos lstop =
  let i = ref pos in
  while !i < lstop && buf.[!i] = '>' do
    incr i
  done;
  !i > pos && !i + 5 <= lstop && is_sep_at buf !i lstop

(* Body fixups mirror [Rfc2822.parse] + [Mbox.parse_chunk]: every line
   loses a trailing '\r', and ">+From " lines lose one '>'. *)
let body_needs_fixup buf bstart bend =
  let pos = ref bstart and found = ref false in
  while (not !found) && !pos < bend do
    let lend = line_end buf !pos bend in
    found := (lend > !pos && buf.[lend - 1] = '\r') || needs_unquote_at buf !pos lend;
    pos := lend + 1
  done;
  !found

let fixup_body buf bstart bend =
  let out = Buffer.create (bend - bstart) in
  let rec go pos =
    if pos <= bend then begin
      let lend = line_end buf pos bend in
      let lstop = if lend > pos && buf.[lend - 1] = '\r' then lend - 1 else lend in
      let pos = if needs_unquote_at buf pos lstop then pos + 1 else pos in
      Buffer.add_substring out buf pos (lstop - pos);
      if lend < bend then begin
        Buffer.add_char out '\n';
        go (lend + 1)
      end
    end
  in
  go bstart;
  Buffer.contents out

let is_mime_header buf off len =
  name_eq_sub buf off len "content-type"
  || name_eq_sub buf off len "content-transfer-encoding"

(* Parse the raw chunk [buf.[off .. off+len-1]] (one mbox message,
   separator excluded) into header fields and a body region, mirroring
   [Mbox.parse_chunk] semantics: one trailing blank line is dropped,
   header values are trimmed and unfolded with spaces, a header line
   without a colon (or with a malformed name) poisons the whole
   message.  A field's trimmed pieces are joined once, when it is
   flushed, so unfolding costs linear time in its continuation
   lines. *)
let parse_raw buf ~off ~len =
  (* Drop the trailing newline [Mbox.print] adds after each body. *)
  let stop = if len > 0 && buf.[off + len - 1] = '\n' then off + len - 1 else off + len in
  let fields = ref [] in
  (* (name, trimmed pieces in reverse) of the field being accumulated,
     or None.  [keep] distinguishes a suppressed field (continuations
     also dropped). *)
  let current = ref None in
  let keep_current = ref true in
  let has_mime = ref false in
  let flush () =
    (match !current with
    | Some (name, [ value ]) when !keep_current -> fields := (name, value) :: !fields
    | Some (name, pieces) when !keep_current ->
        fields := (name, String.concat " " (List.rev pieces)) :: !fields
    | _ -> ());
    current := None;
    keep_current := true
  in
  let exception Bad in
  let rec headers pos =
    if pos >= stop then (flush (); stop)
    else begin
      let lend = line_end buf pos stop in
      let lstop = if lend > pos && buf.[lend - 1] = '\r' then lend - 1 else lend in
      if lstop = pos then (flush (); lend + 1)  (* blank line: body next *)
      else if buf.[pos] = ' ' || buf.[pos] = '\t' then begin
        (match !current with
        | None -> raise Bad
        | Some (name, pieces) ->
            if !keep_current then
              current :=
                Some (name, String.trim (String.sub buf pos (lstop - pos)) :: pieces));
        headers (lend + 1)
      end
      else begin
        flush ();
        let colon =
          let rec find i = if i >= lstop then -1 else if buf.[i] = ':' then i else find (i + 1) in
          find pos
        in
        if colon <= pos then raise Bad;
        let nlen = colon - pos in
        let rec bad_name i =
          i < colon && (buf.[i] = ' ' || buf.[i] = '\t' || bad_name (i + 1))
        in
        if bad_name pos then raise Bad;
        if is_mime_header buf pos nlen then has_mime := true;
        if ignored_slice buf pos nlen then begin
          (* Record that a (suppressed) field is open so its folded
             continuation lines are swallowed with it rather than
             mistaken for orphan continuations — [Mbox.parse_lenient]
             parses the field first and strips it afterwards, so a
             continuation after an ignored header is well-formed. *)
          keep_current := false;
          current := Some ("", [])
        end
        else begin
          let name = String.sub buf pos nlen in
          let value = String.trim (String.sub buf (colon + 1) (lstop - colon - 1)) in
          current := Some (name, [ value ])
        end;
        headers (lend + 1)
      end
    end
  in
  match headers off with
  | exception Bad -> Malformed
  | bstart ->
      let bstart = min bstart stop in
      let fields = List.rev !fields in
      if (not !has_mime) && not (body_needs_fixup buf bstart stop) then
        Simple { fields; body_off = bstart; body_len = stop - bstart }
      else
        Complex
          (Message.make
             ~headers:(Header.of_list fields)
             (fixup_body buf bstart stop))

let ingest_raw ~intern tokenizer buf ~off ~len f =
  match parse_raw buf ~off ~len with
  | Malformed -> None
  | Complex msg -> Some (ingest_message ~intern tokenizer msg f)
  | Simple { fields; body_off; body_len } ->
      let hdr_msg = Message.make ~headers:(Header.of_list fields) "" in
      let k = Intern.keys () in
      let span = Intern.add_sub k and token = Intern.add k in
      Tok.iter_spans tokenizer hdr_msg ~span ~token;
      Tok.iter_body_spans tokenizer buf body_off body_len ~span ~token;
      count_msg len;
      Some (ids_of_keys ~intern k f)

let with_unique_ids_raw tokenizer buf ~off ~len f =
  ingest_raw ~intern:true tokenizer buf ~off ~len f

let unique_ids_raw tokenizer buf ~off ~len =
  with_unique_ids_raw tokenizer buf ~off ~len (fun ids n raw ->
      (Array.sub ids 0 n, raw))

(* ------------------------------------------------------------------ *)
(* Raw classification: one scratch buffer per domain across the whole
   batch, no per-message arrays.  Scoring looks tokens up unless the
   engine's options let a token with no counts be a clue; then it must
   be interned to score (and to name its clue), exactly as training
   would. *)

let classify_raw_engine e tokenizer buf ~off ~len =
  let intern = Options.unknown_word_is_clue (Classify.engine_options e) in
  ingest_raw ~intern tokenizer buf ~off ~len (fun ids n _raw ->
      Classify.score_engine_sub e ids n)

let classify_mbox_engine e tokenizer buf =
  Array.map
    (fun (off, len) -> classify_raw_engine e tokenizer buf ~off ~len)
    (raw_message_chunks buf)

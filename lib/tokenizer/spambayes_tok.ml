let name = "spambayes"

let min_word_length = 3
let max_word_length = 12

(* Length bucket of an overlong word: first character, length rounded
   down to a multiple of 10. *)
let skip_token c len = Printf.sprintf "skip:%c %d" c (len / 10 * 10)

(* Index of the first [c] in [s.[off .. off+len-1]], relative to [off];
   [len] if absent.  A loop, not a local [let rec]: called on every body
   word, it must not allocate. *)
let index_in s off len c =
  let i = ref 0 in
  while !i < len && String.unsafe_get s (off + !i) <> c do
    incr i
  done;
  !i

(* A word with an '@' neither first nor last is an address: its local
   part and each domain label become tokens.  [None] (no allocation)
   for every other word. *)
let email_tokens s off len =
  let i = index_in s off len '@' in
  if i > 0 && i < len - 1 then
    let domain = String.sub s (off + i + 1) (len - i - 1) in
    Some
      (("email name:" ^ String.sub s off i)
       :: List.map
            (fun part -> "email addr:" ^ part)
            (String.split_on_char '.' domain))
  else None

let tokenize_text_with_prefix prefix text =
  List.concat_map
    (fun w ->
      let len = String.length w in
      if len < min_word_length || len > max_word_length then []
      else [ prefix ^ w ])
    (Text.words text)

let address_tokens prefix value =
  match Spamlab_email.Address.of_string value with
  | Error _ -> tokenize_text_with_prefix (prefix ^ ":") value
  | Ok addr ->
      let open Spamlab_email.Address in
      let name_tokens =
        match addr.display_name with
        | None -> []
        | Some n -> tokenize_text_with_prefix (prefix ^ ":name:") n
      in
      (prefix ^ ":addr:" ^ String.lowercase_ascii addr.domain)
      :: (prefix ^ ":name:" ^ String.lowercase_ascii addr.local)
      :: name_tokens

let structure_tokens headers =
  let open Spamlab_email in
  let of_field field =
    match Header.find headers field with
    | None -> []
    | Some v -> (
        [ field ^ ":" ^ String.lowercase_ascii (String.trim v) ]
        |> List.filter (fun t -> String.length t <= 60))
  in
  of_field "content-transfer-encoding"
  @
  match Header.find headers "content-type" with
  | None -> []
  | Some v -> (
      match Mime.content_type_of_string v with
      | Error _ -> []
      | Ok ct ->
          [ Printf.sprintf "content-type:%s/%s" ct.Mime.media_type
              ct.Mime.subtype ])

(* Received lines carry the relay story: hostnames and IPs.  Hostname
   components become received: tokens; IPs contribute their /16 prefix
   (spam sources cluster in address space, exact hosts churn). *)
let received_tokens headers =
  let all_digits s = s <> "" && String.for_all Text.is_digit s in
  let line_tokens value =
    List.concat_map
      (fun word ->
        if not (String.contains word '.') then []
        else
          let parts = String.split_on_char '.' word in
          if List.for_all all_digits parts then
            match parts with
            | a :: b :: _ -> [ Printf.sprintf "received:ip:%s.%s" a b ]
            | _ -> []
          else
            List.filter_map
              (fun part ->
                if
                  String.length part >= min_word_length
                  && String.length part <= max_word_length
                  && not (all_digits part)
                then Some ("received:" ^ part)
                else None)
              parts)
      (Text.words value)
  in
  List.concat_map line_tokens
    (Spamlab_email.Header.find_all headers "received")

(* Body words.  Plain words — the overwhelming bulk of the stream —
   travel as slices; URLs crack, addresses split and overlong words
   become skip: buckets, all computed strings. *)
let iter_body_spans' emit_span emit_tok buf off len =
  Text.iter_word_spans buf off len (fun wbuf woff wlen ->
      if Url.looks_like_url_sub wbuf woff wlen then
        List.iter emit_tok (Url.crack (String.sub wbuf woff wlen))
      else
        match email_tokens wbuf woff wlen with
        | Some tokens -> List.iter emit_tok tokens
        | None ->
            if wlen < min_word_length then ()
            else if wlen > max_word_length then
              emit_tok (skip_token wbuf.[woff] wlen)
            else emit_span wbuf woff wlen)

(* The 8bit% meta token: the share of bytes >= 0x80 in the decoded
   chunks joined by newlines (each separator one low byte), bucketed to
   multiples of 5 as SpamBayes does — counted without concatenating. *)
let eight_bit_of_chunks emit_tok chunks =
  let bytes, high, _ =
    List.fold_left
      (fun (b, h, first) (_, text) ->
        let len = String.length text in
        ( (if first then len else b + 1 + len),
          h + Text.count_high_sub text 0 len,
          false ))
      (0, 0, true) chunks
  in
  if bytes > 0 && high > 0 then
    emit_tok (Printf.sprintf "8bit%%:%d" (100 * high / bytes / 5 * 5))

(* Textual chunks arrive transfer-decoded from the MIME layer.  HTML
   chunks are deconstructed: their prose tokenizes normally, markup
   yields html: meta tokens, and link targets go through the URL
   cracker (spam hides its infrastructure in href attributes). *)
let iter_chunk_spans emit_span emit_tok (kind, text) =
  match kind with
  | Spamlab_email.Mime.Plain ->
      iter_body_spans' emit_span emit_tok text 0 (String.length text)
  | Spamlab_email.Mime.Html ->
      let html = Html.deconstruct text in
      List.iter emit_tok html.Html.meta_tokens;
      List.iter (fun u -> List.iter emit_tok (Url.crack u)) html.Html.urls;
      iter_body_spans' emit_span emit_tok html.Html.visible_text 0
        (String.length html.Html.visible_text)

let iter_spans msg ~span ~token =
  let open Spamlab_email in
  let headers = Message.headers msg in
  (match Header.find headers "subject" with
  | None -> ()
  | Some s ->
      (* SpamBayes emits subject words both prefixed and bare. *)
      List.iter token (tokenize_text_with_prefix "subject:" s);
      iter_body_spans' span token s 0 (String.length s));
  let addr_field prefix field =
    match Header.find headers field with
    | None -> ()
    | Some v -> List.iter token (address_tokens prefix v)
  in
  addr_field "from" "from";
  addr_field "to" "to";
  addr_field "reply-to" "reply-to";
  List.iter token (received_tokens headers);
  List.iter token (structure_tokens headers);
  let chunks = Mime.text_content msg in
  eight_bit_of_chunks token chunks;
  List.iter (iter_chunk_spans span token) chunks

(* The body tokens of a simple message (single part, no transfer
   encoding) straight from a raw slice — the path raw-mbox ingest takes
   when no MIME processing is needed.  Matches what [iter_spans] emits
   for the body of such a message: the 8bit% meta token, then words. *)
let iter_body_spans buf off len ~span ~token =
  let high = Text.count_high_sub buf off len in
  if len > 0 && high > 0 then
    token (Printf.sprintf "8bit%%:%d" (100 * high / len / 5 * 5));
  iter_body_spans' span token buf off len

let name = "spambayes"

let min_word_length = 3
let max_word_length = 12

let skip_token w =
  let n = String.length w / 10 * 10 in
  Printf.sprintf "skip:%c %d" w.[0] n

let email_tokens w =
  match String.index_opt w '@' with
  | Some i when i > 0 && i < String.length w - 1 ->
      let local = String.sub w 0 i in
      let domain = String.sub w (i + 1) (String.length w - i - 1) in
      Some
        (("email name:" ^ local)
         :: List.map
              (fun part -> "email addr:" ^ part)
              (String.split_on_char '.' domain))
  | _ -> None

let word_tokens w =
  if Url.looks_like_url w then Url.crack w
  else
    match email_tokens w with
    | Some tokens -> tokens
    | None ->
        let len = String.length w in
        if len < min_word_length then []
        else if len > max_word_length then [ skip_token w ]
        else [ w ]

let iter_body_text f text =
  List.iter (fun w -> List.iter f (word_tokens w)) (Text.words text)

let tokenize_body_text text =
  let acc = ref [] in
  iter_body_text (fun t -> acc := t :: !acc) text;
  List.rev !acc

let iter_text_with_prefix f prefix text =
  List.iter
    (fun w ->
      let len = String.length w in
      if len >= min_word_length && len <= max_word_length then
        f (prefix ^ w))
    (Text.words text)

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

let eight_bit_token body =
  if body = "" then []
  else
    let bytes = String.length body in
    let high =
      String.fold_left
        (fun acc c -> if Char.code c >= 0x80 then acc + 1 else acc)
        0 body
    in
    if high = 0 then []
    else
      (* Percentage bucketed to multiples of 5, as SpamBayes does. *)
      let pct = 100 * high / bytes / 5 * 5 in
      [ Printf.sprintf "8bit%%:%d" pct ]

(* Textual chunks arrive transfer-decoded from the MIME layer.  HTML
   chunks are deconstructed: their prose tokenizes normally, markup
   yields html: meta tokens, and link targets go through the URL
   cracker (spam hides its infrastructure in href attributes). *)
let iter_chunk f (kind, text) =
  match kind with
  | Spamlab_email.Mime.Plain -> iter_body_text f text
  | Spamlab_email.Mime.Html ->
      let html = Html.deconstruct text in
      List.iter f html.Html.meta_tokens;
      List.iter (fun u -> List.iter f (Url.crack u)) html.Html.urls;
      iter_body_text f html.Html.visible_text

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

(* Emit form: tokens are pushed through [f] in document order without
   materializing the concatenated stream.  [tokenize] is derived from
   this, so the two can never disagree on order or content. *)
let iter_tokens msg f =
  let open Spamlab_email in
  let headers = Message.headers msg in
  (match Header.find headers "subject" with
  | None -> ()
  | Some s ->
      (* SpamBayes emits subject words both prefixed and bare. *)
      iter_text_with_prefix f "subject:" s;
      iter_body_text f s);
  let addr_field prefix field =
    match Header.find headers field with
    | None -> ()
    | Some v -> List.iter f (address_tokens prefix v)
  in
  addr_field "from" "from";
  addr_field "to" "to";
  addr_field "reply-to" "reply-to";
  List.iter f (received_tokens headers);
  List.iter f (structure_tokens headers);
  let chunks = Mime.text_content msg in
  let decoded_text = String.concat "\n" (List.map snd chunks) in
  List.iter f (eight_bit_token decoded_text);
  List.iter (iter_chunk f) chunks

let tokenize msg =
  let acc = ref [] in
  iter_tokens msg (fun t -> acc := t :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Zero-copy span path.  Deliberately written against
   [Text.iter_word_spans] rather than delegating to [iter_tokens], so
   the differential tests compare two independent implementations.
   Meta tokens (skip:, url:, email, 8bit%) still allocate — they are
   computed strings, not substrings of the message — but plain body
   words, the overwhelming bulk of the stream, travel as slices. *)

let contains_at s off len c =
  let i = ref 0 in
  while !i < len && s.[off + !i] <> c do
    incr i
  done;
  !i < len

let iter_body_spans' emit_span emit_tok buf off len =
  Text.iter_word_spans buf off len (fun wbuf woff wlen ->
      if
        Url.looks_like_url_sub wbuf woff wlen
        || contains_at wbuf woff wlen '@'
      then
        (* Rare shapes: materialize and reuse the string-path rules so
           the two paths cannot drift on URLs or addresses. *)
        List.iter emit_tok (word_tokens (String.sub wbuf woff wlen))
      else if wlen < min_word_length then ()
      else if wlen > max_word_length then
        emit_tok (Printf.sprintf "skip:%c %d" wbuf.[woff] (wlen / 10 * 10))
      else emit_span wbuf woff wlen)

(* 8bit% meta token over decoded chunks without concatenating them:
   [String.concat "\n"] in the legacy path contributes one low byte per
   separator, accounted for here. *)
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
      iter_text_with_prefix token "subject:" s;
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

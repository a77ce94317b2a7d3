let name = "spambayes"

let min_word_length = 3
let max_word_length = 12

module Header = Spamlab_email.Header
module Mime = Spamlab_email.Mime

(* An overlong word becomes its length bucket, "skip:<c> <n>": first
   character, length rounded down to a multiple of 10.  The token is
   assembled in a per-domain scratch and delivered as a slice. *)
let skip_scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.of_string "skip:c 0123456789012345678901234")

let emit_skip span c len =
  let b = Domain.DLS.get skip_scratch in
  Bytes.unsafe_set b 5 c;
  let n = len / 10 * 10 in
  let digits = ref 1 and m = ref n in
  while !m >= 10 do
    incr digits;
    m := !m / 10
  done;
  let m = ref n in
  for i = 6 + !digits downto 7 do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  span (Bytes.unsafe_to_string b) 0 (7 + !digits)

(* A word with an '@' (at [at]) neither first nor last is an address:
   its local part and each domain label become tokens. *)
let email_tokens token s off len at =
  token ("email name:" ^ String.sub s off at);
  List.iter
    (fun part -> token ("email addr:" ^ part))
    (String.split_on_char '.' (String.sub s (off + at + 1) (len - at - 1)))

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

let structure_tokens token headers =
  (match Header.find headers "content-transfer-encoding" with
  | None -> ()
  | Some v ->
      let t = "content-transfer-encoding:" ^ String.lowercase_ascii (String.trim v) in
      if String.length t <= 60 then token t);
  match Header.find headers "content-type" with
  | None -> ()
  | Some v -> (
      match Mime.content_type_of_string v with
      | Error _ -> ()
      | Ok ct ->
          token (String.concat "" [ "content-type:"; ct.Mime.media_type; "/"; ct.Mime.subtype ]))

(* Received lines carry the relay story: hostnames and IPs.  Hostname
   components become received: tokens; IPs contribute their /16 prefix
   (spam sources cluster in address space, exact hosts churn). *)
let received_tokens token headers =
  let all_digits s = s <> "" && String.for_all Text.is_digit s in
  let word_tokens word =
    if String.contains word '.' then
      let parts = String.split_on_char '.' word in
      if List.for_all all_digits parts then
        match parts with
        | a :: b :: _ -> token (String.concat "" [ "received:ip:"; a; "."; b ])
        | _ -> ()
      else
        List.iter
          (fun part ->
            if
              String.length part >= min_word_length
              && String.length part <= max_word_length
              && not (all_digits part)
            then token ("received:" ^ part))
          parts
  in
  List.iter
    (fun value -> List.iter word_tokens (Text.words value))
    (Header.find_all headers "received")

(* Body words.  Plain words — the overwhelming bulk of the stream —
   travel as slices, and so do skip: buckets; URLs crack and addresses
   split into computed strings.  One scan of each word finds its
   length and the ':' and '@' that decide its shape. *)
let body_words span token buf off len =
  Text.iter_marked_words buf off len (fun wbuf woff wlen colon at ->
      if Url.looks_like_url_at wbuf woff wlen ~colon then
        List.iter token (Url.crack (String.sub wbuf woff wlen))
      else if at > 0 && at < wlen - 1 then email_tokens token wbuf woff wlen at
      else if wlen < min_word_length then ()
      else if wlen > max_word_length then emit_skip span (String.unsafe_get wbuf woff) wlen
      else span wbuf woff wlen)

let eight_bit_tokens = Array.init 21 (fun i -> "8bit%:" ^ string_of_int (5 * i))

let crack_url token buf off len = List.iter token (Url.crack (String.sub buf off len))

(* The body is read through the MIME decoder.  The 8bit% meta token
   comes first: the share of bytes >= 0x80 in the decoded leaves joined
   by newlines (each separator one low byte), bucketed to multiples of
   5 as SpamBayes does — counted without concatenating.  HTML leaves
   are deconstructed: their prose tokenizes normally, markup yields
   html: meta tokens, and link targets go through the URL cracker
   (spam hides its infrastructure in href attributes). *)
let iter_spans headers buf off len ~span ~token =
  (match Header.find headers "subject" with
  | None -> ()
  | Some s ->
      (* SpamBayes emits subject words both prefixed and bare. *)
      List.iter token (tokenize_text_with_prefix "subject:" s);
      body_words span token s 0 (String.length s));
  let addr_field prefix field =
    match Header.find headers field with
    | None -> ()
    | Some v -> List.iter token (address_tokens prefix v)
  in
  addr_field "from" "from";
  addr_field "to" "to";
  addr_field "reply-to" "reply-to";
  received_tokens token headers;
  structure_tokens token headers;
  let leaves = Mime.text_leaves headers buf off len in
  let bytes = ref (-1) and high = ref 0 in
  Mime.iter_leaves leaves (fun _ b o l ->
      bytes := !bytes + 1 + l;
      high := !high + Text.count_high_sub b o l);
  if !bytes > 0 && !high > 0 then token eight_bit_tokens.(100 * !high / !bytes / 5);
  Mime.iter_leaves leaves (fun kind b o l ->
      match kind with
      | Mime.Plain -> body_words span token b o l
      | Mime.Html ->
          Html.iter b o l ~meta:token ~url:(crack_url token) ~text:(body_words span token))

let name = "spamassassin"

let max_word_length = 15

let scanned_headers = [ "subject"; "from"; "to"; "reply-to" ]

let stem w =
  if String.length w <= max_word_length then w
  else "sk:" ^ String.sub w 0 5

(* A URL keeps only its hostname as a single token. *)
let url_tokens w =
  match Url.crack w with
  | _proto :: host :: _ -> [ host ]
  | tokens -> tokens

(* An overlong word's "sk:" stem, assembled in a per-domain scratch
   and delivered as a slice. *)
let stem_scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.of_string "sk:xxxxx")

let emit_stem span buf off =
  let b = Domain.DLS.get stem_scratch in
  Bytes.blit_string buf off b 3 5;
  span (Bytes.unsafe_to_string b) 0 8

(* Short-enough body words and stems travel as slices; URL hosts are
   computed strings and allocate.  The body is read as it is, with no
   MIME decoding. *)
let iter_spans headers buf off len ~span ~token =
  List.iter
    (fun field ->
      match Spamlab_email.Header.find headers field with
      | None -> ()
      | Some value ->
          let prefix = "h" ^ field ^ ":" in
          Text.iter_word_spans value 0 (String.length value)
            (fun wbuf woff wlen ->
              if wlen >= 3 then
                token (prefix ^ stem (String.sub wbuf woff wlen))))
    scanned_headers;
  Text.iter_marked_words buf off len (fun wbuf woff wlen colon _at ->
      if Url.looks_like_url_at wbuf woff wlen ~colon then
        List.iter token (url_tokens (String.sub wbuf woff wlen))
      else if wlen < 3 then ()
      else if wlen <= max_word_length then span wbuf woff wlen
      else emit_stem span wbuf woff)

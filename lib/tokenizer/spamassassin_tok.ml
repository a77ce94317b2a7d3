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

(* Short-enough body words travel as slices; URL hosts and sk: stems
   are computed strings and allocate. *)
let iter_body_spans buf off len ~span ~token =
  Text.iter_word_spans buf off len (fun wbuf woff wlen ->
      if Url.looks_like_url_sub wbuf woff wlen then
        List.iter token (url_tokens (String.sub wbuf woff wlen))
      else if wlen < 3 then ()
      else if wlen <= max_word_length then span wbuf woff wlen
      else token ("sk:" ^ String.sub wbuf woff 5))

let iter_spans msg ~span ~token =
  let open Spamlab_email in
  List.iter
    (fun field ->
      match Header.find (Message.headers msg) field with
      | None -> ()
      | Some value ->
          let prefix = "h" ^ field ^ ":" in
          Text.iter_word_spans value 0 (String.length value)
            (fun wbuf woff wlen ->
              if wlen >= 3 then
                token (prefix ^ stem (String.sub wbuf woff wlen))))
    scanned_headers;
  let body = Message.body msg in
  iter_body_spans body 0 (String.length body) ~span ~token

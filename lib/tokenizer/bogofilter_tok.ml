let name = "bogofilter"

let min_word_length = 3
let max_word_length = 30

let keep_len n = n >= min_word_length && n <= max_word_length

(* Header tokens are prefixed and so inherently allocate; body words —
   the bulk — travel as slices.  The body is read as it is, with no
   MIME decoding. *)
let iter_spans headers buf off len ~span ~token =
  Spamlab_email.Header.fold
    (fun () name value ->
      let prefix = String.lowercase_ascii name ^ ":" in
      Text.iter_word_spans value 0 (String.length value)
        (fun wbuf woff wlen ->
          if keep_len wlen then
            token (prefix ^ String.sub wbuf woff wlen)))
    () headers;
  Text.iter_word_spans buf off len (fun wbuf woff wlen ->
      if keep_len wlen then span wbuf woff wlen)

(* Reference implementations kept as differential oracles for lib/.
   Each is the hand-written list/string form a lib/ path replaced, and
   shares as little as possible with it.

   The string decoder: RFC 2822 parsing by lines, base64 and
   quoted-printable decoding, MIME multipart traversal and HTML
   deconstruction over whole strings and parsed [Message.t] parts, an
   oracle for [Rfc2822.scan_headers] and the offset walk in
   [Mime.text_leaves] and [Html.iter].

   The string tokenizers: the SpamBayes, BogoFilter and SpamAssassin
   tokenizers on allocated strings, an oracle for the span tokenizers
   in lib/tokenizer.  They share nothing with the span path except the
   pieces that exist only once (URL cracking, content-type, header and
   address parsing): word splitting, punctuation stripping, the URL
   shape test, the decoder above and every tokenizer rule are written
   out again here.  The tests compare [Tokenizer.tokenize] with these
   streams as sequences, token for token.

   The list scoring pipeline: Robinson's f(w), list Fisher and list
   δ(E) selection, an oracle for [Prob_cache]'s loops,
   [Fisher.indicator] and [Classify.score_probs].

   The line-splitting token-db reader: the strict and salvage readings
   and the store's user-block parse, an oracle for the row scanner
   behind [Token_db.of_string], [verify_string], [salvage_string] and
   [Store.apply_block]. *)

(* ------------------------------------------------------------------ *)
(* Transfer decoding                                                   *)

module Encoding = struct
  let base64_value = function
    | 'A' .. 'Z' as c -> Some (Char.code c - 65)
    | 'a' .. 'z' as c -> Some (Char.code c - 97 + 26)
    | '0' .. '9' as c -> Some (Char.code c - 48 + 52)
    | '+' -> Some 62
    | '/' -> Some 63
    | _ -> None

  (* Ignores whitespace; accepts unpadded input; rejects characters
     outside the alphabet. *)
  let base64_decode input =
    let out = Buffer.create (String.length input * 3 / 4) in
    let acc = ref 0 in
    let bits = ref 0 in
    let error = ref None in
    String.iter
      (fun c ->
        if !error = None then
          match c with
          | ' ' | '\t' | '\n' | '\r' | '=' -> ()
          | c -> (
              match base64_value c with
              | None ->
                  error :=
                    Some (Printf.sprintf "invalid base64 character %C" c)
              | Some v ->
                  acc := (!acc lsl 6) lor v;
                  bits := !bits + 6;
                  if !bits >= 8 then begin
                    bits := !bits - 8;
                    Buffer.add_char out
                      (Char.chr ((!acc lsr !bits) land 0xFF))
                  end))
      input;
    match !error with
    | Some e -> Error e
    | None -> Ok (Buffer.contents out)

  let hex_value = function
    | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
    | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
    | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None

  (* Decodes [=XX] escapes and removes soft line breaks; a stray '='
     followed by non-hex stays literal. *)
  let quoted_printable_decode input =
    let out = Buffer.create (String.length input) in
    let n = String.length input in
    let rec go i =
      if i >= n then Ok (Buffer.contents out)
      else
        match input.[i] with
        | '=' when i + 1 < n && input.[i + 1] = '\n' -> go (i + 2)
        | '=' when i + 2 < n && input.[i + 1] = '\r' && input.[i + 2] = '\n' ->
            go (i + 3)
        | '=' when i + 2 < n -> (
            match (hex_value input.[i + 1], hex_value input.[i + 2]) with
            | Some hi, Some lo ->
                Buffer.add_char out (Char.chr ((hi lsl 4) lor lo));
                go (i + 3)
            | _ ->
                Buffer.add_char out '=';
                go (i + 1))
        | c ->
            Buffer.add_char out c;
            go (i + 1)
    in
    go 0
end

(* ------------------------------------------------------------------ *)
(* RFC 2822 reading                                                    *)

module Rfc2822 = struct
  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let is_continuation line =
    String.length line > 0 && (line.[0] = ' ' || line.[0] = '\t')

  let parse_field line =
    match String.index_opt line ':' with
    | None -> Error (Printf.sprintf "header line without ':': %S" line)
    | Some i ->
        let name = String.sub line 0 i in
        let value =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        if name = "" || String.exists (fun c -> c = ' ' || c = '\t') name then
          Error (Printf.sprintf "malformed header name in %S" line)
        else Ok (name, value)

  (* Header fields until the first blank line, the remainder (joined
     back with newlines, one CR off each line) the body. *)
  let parse text =
    let lines = String.split_on_char '\n' text in
    let rec headers acc = function
      | [] -> Ok (List.rev acc, [])
      | "" :: rest -> Ok (List.rev acc, rest)
      | line :: rest ->
          let line = strip_cr line in
          if line = "" then Ok (List.rev acc, rest)
          else if is_continuation line then
            match acc with
            | [] -> Error "continuation line before any header field"
            | (name, pieces) :: older ->
                headers ((name, String.trim line :: pieces) :: older) rest
          else
            Result.bind (parse_field line) (fun (name, value) ->
                headers ((name, [ value ]) :: acc) rest)
    in
    match headers [] lines with
    | Error e -> Error e
    | Ok (fields, body_lines) ->
        let unfolded =
          List.map (fun (n, pieces) -> (n, String.concat " " (List.rev pieces))) fields
        in
        let body = String.concat "\n" (List.map strip_cr body_lines) in
        Ok
          (Spamlab_email.Message.make
             ~headers:(Spamlab_email.Header.of_list unfolded)
             body)
end

(* ------------------------------------------------------------------ *)
(* MIME traversal                                                      *)

module Mime = struct
  module Header = Spamlab_email.Header
  module Message = Spamlab_email.Message
  module M = Spamlab_email.Mime

  let text_plain = { M.media_type = "text"; subtype = "plain"; parameters = [] }

  let content_type_to_string t =
    let params =
      String.concat ""
        (List.map (fun (n, v) -> Printf.sprintf "; %s=%s" n v) t.M.parameters)
    in
    Printf.sprintf "%s/%s%s" t.M.media_type t.M.subtype params

  (* The message's Content-Type header, defaulting to text/plain when
     absent or malformed (RFC 2045 §5.2). *)
  let content_type msg =
    match Header.find (Message.headers msg) "content-type" with
    | None -> text_plain
    | Some v -> (
        match M.content_type_of_string v with
        | Ok t -> t
        | Error _ -> text_plain)

  (* The body after reversing the Content-Transfer-Encoding; anything
     else, and decode errors, pass through. *)
  let decoded_body msg =
    let body = Message.body msg in
    match Header.find (Message.headers msg) "content-transfer-encoding" with
    | None -> body
    | Some encoding -> (
        match String.lowercase_ascii (String.trim encoding) with
        | "base64" -> (
            match Encoding.base64_decode body with
            | Ok decoded -> decoded
            | Error _ -> body)
        | "quoted-printable" -> (
            match Encoding.quoted_printable_decode body with
            | Ok decoded -> decoded
            | Error _ -> body)
        | _ -> body)

  (* Multipart splitting: parts are delimited by lines "--boundary",
     the whole thing terminated by "--boundary--".  The preamble and
     epilogue are discarded per RFC 2046.  Each part is parsed as a
     message; [None] when not multipart, the boundary is missing, or no
     part parses. *)
  let parts msg =
    let ct = content_type msg in
    if ct.M.media_type <> "multipart" then None
    else
      match M.parameter ct "boundary" with
      | None | Some "" -> None
      | Some boundary ->
          let delimiter = "--" ^ boundary in
          let terminator = delimiter ^ "--" in
          let lines = String.split_on_char '\n' (Message.body msg) in
          let flush chunks current =
            match current with
            | None -> chunks
            | Some lines -> List.rev lines :: chunks
          in
          let rec scan chunks current = function
            | [] -> List.rev (flush chunks current)
            | line :: rest ->
                let trimmed = String.trim line in
                if trimmed = terminator then List.rev (flush chunks current)
                else if trimmed = delimiter then
                  scan (flush chunks current) (Some []) rest
                else
                  let current = Option.map (fun ls -> line :: ls) current in
                  scan chunks current rest
          in
          let chunks = scan [] None lines in
          let parse_part chunk =
            match Rfc2822.parse (String.concat "\n" chunk) with
            | Ok part -> Some part
            | Error _ -> None
          in
          let parsed = List.filter_map parse_part chunks in
          if parsed = [] then None else Some parsed

  type text_kind = M.text_kind = Plain | Html

  let max_depth = 4

  let rec collect_text depth msg =
    if depth > max_depth then []
    else
      let ct = content_type msg in
      match (ct.M.media_type, parts msg) with
      | "multipart", Some subparts ->
          List.concat_map (collect_text (depth + 1)) subparts
      | "text", _ -> (
          let body = decoded_body msg in
          match ct.M.subtype with
          | "html" -> [ (Html, body) ]
          | _ -> [ (Plain, body) ])
      | "multipart", None -> [ (Plain, Message.body msg) ]
      | _ -> []

  (* Every textual leaf, transfer-decoded, in document order; never
     empty. *)
  let text_content msg =
    match collect_text 0 msg with
    | [] -> [ (Plain, decoded_body msg) ]
    | chunks -> chunks

  let contains_substring haystack needle =
    let n = String.length haystack and m = String.length needle in
    let rec scan i =
      if i + m > n then false
      else if String.sub haystack i m = needle then true
      else scan (i + 1)
    in
    m = 0 || scan 0

  (* Assemble multipart/mixed from parts.  @raise Invalid_argument on
     an empty boundary or a boundary occurring in a part's serialized
     form. *)
  let make_multipart ?(headers = Header.empty) ~boundary parts_list =
    if boundary = "" then invalid_arg "Mime.make_multipart: empty boundary";
    let rendered = List.map Spamlab_email.Rfc2822.print parts_list in
    List.iter
      (fun body ->
        if contains_substring body ("--" ^ boundary) then
          invalid_arg "Mime.make_multipart: boundary occurs in a part")
      rendered;
    let delimiter = "--" ^ boundary in
    let body =
      String.concat "\n"
        (List.concat_map (fun part -> [ delimiter; part ]) rendered
        @ [ delimiter ^ "--"; "" ])
    in
    Message.make
      ~headers:
        (Header.replace headers "Content-Type"
           (Printf.sprintf "multipart/mixed; boundary=\"%s\"" boundary))
      body
end

(* ------------------------------------------------------------------ *)
(* HTML deconstruction                                                 *)

module Html = struct
  type t = {
    visible_text : string;
    meta_tokens : string list;
    urls : string list;
  }

  let tracked_tags =
    [ "a"; "img"; "font"; "table"; "iframe"; "script"; "style"; "form";
      "input" ]

  let is_ascii_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  let is_digit c = c >= '0' && c <= '9'

  (* Only a ';' within 8 bytes of the '&' closes an entity. *)
  let decode_entities s =
    let out = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Buffer.contents out
      else if s.[i] = '&' then (
        match String.index_from_opt (String.sub s i (min 9 (n - i))) 0 ';' with
        | Some d -> (
            let semi = i + d in
            let entity = String.sub s (i + 1) (semi - i - 1) in
            let replacement =
              match String.lowercase_ascii entity with
              | "amp" -> Some "&"
              | "lt" -> Some "<"
              | "gt" -> Some ">"
              | "quot" -> Some "\""
              | "apos" -> Some "'"
              | "nbsp" -> Some " "
              | e
                when String.length e > 1
                     && e.[0] = '#'
                     && String.for_all
                          (fun c -> c >= '0' && c <= '9')
                          (String.sub e 1 (String.length e - 1)) -> (
                  match int_of_string_opt (String.sub e 1 (String.length e - 1)) with
                  | Some code when code > 0 && code < 256 ->
                      Some (String.make 1 (Char.chr code))
                  | _ -> None)
              | _ -> None
            in
            match replacement with
            | Some r ->
                Buffer.add_string out r;
                go (semi + 1)
            | None ->
                Buffer.add_char out '&';
                go (i + 1))
        | None ->
            Buffer.add_char out '&';
            go (i + 1))
      else begin
        Buffer.add_char out s.[i];
        go (i + 1)
      end
    in
    go 0

  (* Outside tags, bytes accumulate as visible text; inside a tag, the
     name and href/src attributes are captured; script and style
     element contents are skipped entirely. *)
  let deconstruct input =
    let input = decode_entities input in
    let n = String.length input in
    let text = Buffer.create n in
    let meta = ref [] in
    let urls = ref [] in
    let lowercase_at i len = String.lowercase_ascii (String.sub input i len) in
    let tag_name i =
      let closing = i < n && input.[i] = '/' in
      let start = if closing then i + 1 else i in
      let rec stop j =
        if j < n && (is_ascii_alpha input.[j] || is_digit input.[j]) then
          stop (j + 1)
        else j
      in
      let j = stop start in
      (lowercase_at start (j - start), closing)
    in
    let find_attr_urls tag_start tag_stop =
      let tag_text = lowercase_at tag_start (tag_stop - tag_start) in
      List.iter
        (fun attr ->
          let alen = String.length attr in
          let rec search from =
            if from + alen >= String.length tag_text then ()
            else if String.sub tag_text from alen = attr then begin
              let vstart = from + alen in
              let vstart, quote =
                if
                  vstart < String.length tag_text
                  && (tag_text.[vstart] = '"' || tag_text.[vstart] = '\'')
                then (vstart + 1, Some tag_text.[vstart])
                else (vstart, None)
              in
              let rec vstop j =
                if j >= String.length tag_text then j
                else
                  match quote with
                  | Some q -> if tag_text.[j] = q then j else vstop (j + 1)
                  | None ->
                      if tag_text.[j] = ' ' || tag_text.[j] = '>' then j
                      else vstop (j + 1)
              in
              let j = vstop vstart in
              if j > vstart then
                urls := String.sub tag_text vstart (j - vstart) :: !urls;
              search j
            end
            else search (from + 1)
          in
          search 0)
        [ "href="; "src=" ]
    in
    let rec skip_element_content close i =
      match String.index_from_opt input i '<' with
      | None -> n
      | Some lt ->
          let name, closing = tag_name (lt + 1) in
          if closing && name = close then
            match String.index_from_opt input lt '>' with
            | Some gt -> gt + 1
            | None -> n
          else skip_element_content close (lt + 1)
    in
    let rec go i =
      if i >= n then ()
      else if input.[i] = '<' then
        if i + 3 < n && String.sub input i 4 = "<!--" then (
          let rec find_end j =
            if j + 2 >= n then n
            else if String.sub input j 3 = "-->" then j + 3
            else find_end (j + 1)
          in
          go (find_end (i + 4)))
        else begin
          let name, closing = tag_name (i + 1) in
          let tag_end =
            match String.index_from_opt input i '>' with
            | Some gt -> gt
            | None -> n
          in
          if name <> "" && not closing && List.mem name tracked_tags then
            meta := ("html:" ^ name) :: !meta;
          find_attr_urls i (min n tag_end);
          Buffer.add_char text ' ';
          let next = min n (tag_end + 1) in
          if (not closing) && (name = "script" || name = "style") then
            go (skip_element_content name next)
          else go next
        end
      else begin
        Buffer.add_char text input.[i];
        go (i + 1)
      end
    in
    go 0;
    {
      visible_text = Buffer.contents text;
      meta_tokens = List.rev !meta;
      urls = List.rev !urls;
    }

  let strip_tags input = (deconstruct input).visible_text
end

(* ------------------------------------------------------------------ *)
(* Word splitting                                                      *)

module Text = struct
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

  let split_whitespace s =
    let n = String.length s in
    let rec scan i start acc =
      if i >= n then
        if i > start then String.sub s start (i - start) :: acc else acc
      else if is_space s.[i] then
        let acc =
          if i > start then String.sub s start (i - start) :: acc else acc
        in
        scan (i + 1) (i + 1) acc
      else scan (i + 1) start acc
    in
    List.rev (scan 0 0 [])

  let is_ascii_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  let is_digit c = c >= '0' && c <= '9'

  let is_word_char c =
    is_ascii_alpha c || is_digit c || c = '\'' || c = '$' || c = '-'

  let strip_punctuation s =
    let n = String.length s in
    let rec first i = if i < n && not (is_word_char s.[i]) then first (i + 1) else i in
    let rec last i = if i >= 0 && not (is_word_char s.[i]) then last (i - 1) else i in
    let lo = first 0 in
    let hi = last (n - 1) in
    if hi < lo then "" else String.sub s lo (hi - lo + 1)

  let words s =
    split_whitespace s
    |> List.filter_map (fun w ->
           let w = strip_punctuation (String.lowercase_ascii w) in
           if w = "" then None else Some w)
end

(* ------------------------------------------------------------------ *)
(* URL shape                                                           *)

module Url = struct
  let known_schemes = [ "http"; "https"; "ftp"; "mailto" ]

  let scheme_of w =
    match String.index_opt w ':' with
    | Some i
      when i + 2 < String.length w
           && w.[i + 1] = '/'
           && w.[i + 2] = '/'
           && List.mem (String.sub w 0 i) known_schemes ->
        Some (String.sub w 0 i, String.sub w (i + 3) (String.length w - i - 3))
    | _ -> None

  let looks_like_url w =
    let w = String.lowercase_ascii w in
    Option.is_some (scheme_of w)
    || (String.length w > 4 && String.sub w 0 4 = "www.")

  let crack = Spamlab_tokenizer.Url.crack
end

(* ------------------------------------------------------------------ *)
(* SpamBayes                                                           *)

module Spambayes = struct
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

  let iter_chunk f (kind, text) =
    match kind with
    | Mime.Plain -> iter_body_text f text
    | Mime.Html ->
        let html = Html.deconstruct text in
        List.iter f html.Html.meta_tokens;
        List.iter (fun u -> List.iter f (Url.crack u)) html.Html.urls;
        iter_body_text f html.Html.visible_text

  let structure_tokens headers =
    let module Header = Spamlab_email.Header in
    let module Mime = Spamlab_email.Mime in
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

  let iter_tokens msg f =
    let module Header = Spamlab_email.Header in
    let headers = Spamlab_email.Message.headers msg in
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
end

(* ------------------------------------------------------------------ *)
(* BogoFilter                                                          *)

module Bogofilter = struct
  let name = "bogofilter"

  let min_word_length = 3
  let max_word_length = 30

  let keep w =
    let n = String.length w in
    n >= min_word_length && n <= max_word_length

  let iter_tokens msg f =
    let open Spamlab_email in
    Header.fold
      (fun () name value ->
        let prefix = String.lowercase_ascii name ^ ":" in
        List.iter (fun w -> if keep w then f (prefix ^ w)) (Text.words value))
      ()
      (Message.headers msg);
    List.iter (fun w -> if keep w then f w) (Text.words (Message.body msg))

  let tokenize msg =
    let acc = ref [] in
    iter_tokens msg (fun t -> acc := t :: !acc);
    List.rev !acc
end

(* ------------------------------------------------------------------ *)
(* SpamAssassin                                                        *)

module Spamassassin = struct
  let name = "spamassassin"

  let max_word_length = 15

  let scanned_headers = [ "subject"; "from"; "to"; "reply-to" ]

  let stem w =
    if String.length w <= max_word_length then w
    else "sk:" ^ String.sub w 0 5

  let body_word w =
    if Url.looks_like_url w then
      (* Keep only the hostname as a single token. *)
      match Url.crack w with
      | _proto :: host :: _ -> [ host ]
      | tokens -> tokens
    else if String.length w < 3 then []
    else [ stem w ]

  let iter_tokens msg f =
    let open Spamlab_email in
    List.iter
      (fun field ->
        match Header.find (Message.headers msg) field with
        | None -> ()
        | Some value ->
            let prefix = "h" ^ field ^ ":" in
            List.iter
              (fun w -> if String.length w >= 3 then f (prefix ^ stem w))
              (Text.words value))
      scanned_headers;
    List.iter
      (fun w -> List.iter f (body_word w))
      (Text.words (Message.body msg))

  let tokenize msg =
    let acc = ref [] in
    iter_tokens msg (fun t -> acc := t :: !acc);
    List.rev !acc
end

(* ------------------------------------------------------------------ *)
(* Registry and list-form helpers                                      *)

let all =
  [
    (Spambayes.name, Spambayes.tokenize);
    (Bogofilter.name, Bogofilter.tokenize);
    (Spamassassin.name, Spamassassin.tokenize);
  ]

(* The oracle stream of the same-named registered tokenizer. *)
let tokenize tokenizer msg =
  (List.assoc (Spamlab_tokenizer.Tokenizer.name tokenizer) all) msg

(* [unique_counted stream] is the sorted distinct tokens of [stream]
   and its length: what [Tokenizer.unique_tokens] and
   [Dataset.tokenize_ids] must agree with. *)
let unique_counted tokens =
  (Array.of_list (List.sort_uniq String.compare tokens), List.length tokens)

(* ------------------------------------------------------------------ *)
(* Fisher's method, list form                                          *)

(* Fisher's method over score lists: statistic, combined p-value and
   the H/S tails built from them.  [Spamlab_stats.Fisher.indicator fs n]
   must equal [indicator] of the same n scores bit for bit. *)
module Fisher = struct
  module Special = Spamlab_stats.Special

  let epsilon = 1e-12

  let clamp p = Float.max epsilon (Float.min (1.0 -. epsilon) p)

  let statistic ps =
    if ps = [] then invalid_arg "Fisher.statistic: empty p-value list";
    List.fold_left
      (fun acc p ->
        if p < 0.0 || p > 1.0 then
          invalid_arg "Fisher.statistic: p-value outside [0,1]";
        acc -. (2.0 *. log (clamp p)))
      0.0 ps

  let combine ps =
    let n = List.length ps in
    Special.chi2_sf ~df:(2 * n) (statistic ps)

  let spambayes_h fs = if fs = [] then 1.0 else combine fs

  let spambayes_s fs =
    if fs = [] then 1.0 else combine (List.map (fun f -> 1.0 -. f) fs)

  let indicator fs =
    let h = spambayes_h fs in
    let s = spambayes_s fs in
    (1.0 +. h -. s) /. 2.0
end

(* ------------------------------------------------------------------ *)
(* Robinson's f(w)                                                     *)

(* The paper's Eq. 2 over its Eq. 1 ratio, written out apart from the
   served kernel ([Prob_cache.smoothed_counts]) so that a change to the
   formula there shows in every differential test.  The float
   operations are the served ones in the same order, so the two agree
   bit for bit; 'smoothed matches Eq. 2 by hand' (test_spambayes) pins
   the served one against arithmetic done by hand. *)
module Robinson = struct
  let smoothed (options : Spamlab_spambayes.Options.t) ~spam ~ham ~nspam
      ~nham =
    (* N_S(w)/N_S and N_H(w)/N_H, 0 for a class with no messages. *)
    let freq count total =
      if total = 0 then 0.0 else float_of_int count /. float_of_int total
    in
    let fs = freq spam nspam and fh = freq ham nham in
    if fs +. fh = 0.0 then options.unknown_word_prob
    else
      let n_w = float_of_int (spam + ham) in
      ((options.unknown_word_strength *. options.unknown_word_prob)
      +. (n_w *. (fs /. (fs +. fh))))
      /. (options.unknown_word_strength +. n_w)
end

(* ------------------------------------------------------------------ *)
(* The string-keyed learner path                                       *)

(* What [Token_db] and the scoring kernel answered by token string
   before every learner entry point took ids: counts and f(w) looked up
   through [Intern.find], which never interns (an unseen string reads
   0/0 and scores the prior).  [Scoring.classify] below is
   [Filter.classify] as it ran on strings. *)
module By_string = struct
  module Classify = Spamlab_spambayes.Classify
  module Filter = Spamlab_spambayes.Filter
  module Intern = Spamlab_spambayes.Intern
  module Token_db = Spamlab_spambayes.Token_db

  let spam_count db token =
    match Intern.find token with None -> 0 | Some id -> Token_db.spam_count_id db id

  let ham_count db token =
    match Intern.find token with None -> 0 | Some id -> Token_db.ham_count_id db id

  let smoothed options db token =
    Robinson.smoothed options ~spam:(spam_count db token)
      ~ham:(ham_count db token) ~nspam:(Token_db.nspam db)
      ~nham:(Token_db.nham db)

end

(* ------------------------------------------------------------------ *)
(* Discriminator selection, list form                                  *)

(* δ(E) over boxed candidate clues: [List.filter] by strength,
   [List.sort] by a comparator that breaks strength ties on token
   bytes, [take], then the list Fisher above.  It shares nothing with
   [Classify.score_probs] but the result type, so the differential
   tests hold the scratch-array selection — and every engine feeding
   it — to this. *)
module Scoring = struct
  module Classify = Spamlab_spambayes.Classify
  module Intern = Spamlab_spambayes.Intern
  module Options = Spamlab_spambayes.Options
  module Token_db = Spamlab_spambayes.Token_db

  let by_strength_desc (a : Classify.clue) (b : Classify.clue) =
    let sa = Float.abs (a.score -. 0.5) in
    let sb = Float.abs (b.score -. 0.5) in
    match Float.compare sb sa with
    | 0 -> String.compare a.token b.token
    | c -> c

  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  (* The comparator is a total order on distinct tokens, so the
     selection does not depend on the order candidates arrive in. *)
  let select_scored (options : Options.t) candidates =
    let scored =
      List.filter
        (fun (c : Classify.clue) ->
          Float.abs (c.score -. 0.5) >= options.minimum_prob_strength)
        candidates
    in
    take options.max_discriminators (List.sort by_strength_desc scored)

  (* δ(E) of a distinct-token array, probabilities looked up by
     string. *)
  let select_discriminators (options : Options.t) db tokens =
    let candidates = ref [] in
    Array.iter
      (fun token ->
        let score = By_string.smoothed options db token in
        if Float.abs (score -. 0.5) >= options.minimum_prob_strength then
          candidates := { Classify.token; score } :: !candidates)
      tokens;
    select_scored options !candidates

  let indicator_of_clues = function
    | [] -> 0.5
    | clues -> Fisher.indicator (List.map (fun (c : Classify.clue) -> c.score) clues)

  let result_of_clues options clues =
    let indicator = indicator_of_clues clues in
    { Classify.indicator; verdict = Classify.verdict_of_indicator options indicator; clues }

  (* Candidates may arrive in any order and may or may not be
     pre-filtered by strength. *)
  let score_clues options candidates =
    result_of_clues options (select_scored options candidates)

  let score_tokens options db tokens =
    result_of_clues options (select_discriminators options db tokens)

  (* [Filter.classify] on strings: the message's sorted distinct tokens
     ([Filter.features]), each scored by string, the list selection.
     It shares no code with the served path past the tokenizer, so the
     tests hold [Filter.classify]'s clues — [Classify.explain] over
     [Ingest]'s ids — to it bit for bit. *)
  let classify filter msg =
    score_tokens (Spamlab_spambayes.Filter.options filter)
      (Spamlab_spambayes.Filter.db filter)
      (Spamlab_spambayes.Filter.features filter msg)

  (* The pre-cache scoring path: uncached probabilities by id, eager
     per-candidate clue materialization, list selection.  [bench
     classify] also times it as the baseline the cached hot path is
     compared against. *)
  let score_ids_reference (options : Options.t) db ids =
    let candidates = ref [] in
    Array.iter
      (fun id ->
        let score =
          Robinson.smoothed options ~spam:(Token_db.spam_count_id db id)
            ~ham:(Token_db.ham_count_id db id) ~nspam:(Token_db.nspam db)
            ~nham:(Token_db.nham db)
        in
        if Float.abs (score -. 0.5) >= options.minimum_prob_strength then
          candidates := { Classify.token = Intern.to_string id; score } :: !candidates)
      ids;
    score_clues options !candidates
end

(* ------------------------------------------------------------------ *)
(* Token-db reading, by lines                                          *)

(* The line-splitting readers the row scanner in [Token_db] replaced:
   the strict parse and the salvage behind [Token_db.of_string],
   [verify_string] and [salvage_string], and the store's user-block
   row parse.  They split the file into a list of line strings, split
   each line on tabs, and checksum copies.  The loaded rows go to the
   caller's [load_row] (every entry row, zero counts included, in file
   order) instead of into a db, so a test can see what a reading would
   intern without interning it.  Two changes against the original.
   The salvage reading checksums blank lines before the footer, as the
   strict one always did; the original skipped them, so it could call
   a file's checksum good that the strict check calls corrupted.  And a
   footer must be byte for byte the one its values render to; the
   original's [%x] also took a case-flipped hex digit, so one flipped
   bit of a footer could load unnoticed. *)
module Db_lines = struct
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc_init = 0xffffffff
  let crc_finish reg = reg lxor 0xffffffff

  let crc_feed reg s =
    let reg = ref reg in
    String.iter
      (fun c ->
        reg := crc_table.((!reg lxor Char.code c) land 0xff) lxor (!reg lsr 8))
      s;
    !reg

  let footer_prefix = "#spamlab-db-footer "

  type report = {
    version : int;
    nspam : int;
    nham : int;
    entries : int;
    checksum : [ `Ok | `Absent ];
  }

  type salvage = {
    s_version : int;
    s_nspam : int;
    s_nham : int;
    kept : int;
    dropped : int;
    checksum_ok : bool option;
  }

  let unescape_token s =
    if not (String.contains s '\\') then Ok s
    else begin
      let buf = Buffer.create (String.length s) in
      let n = String.length s in
      let rec loop i =
        if i >= n then Ok (Buffer.contents buf)
        else
          match s.[i] with
          | '\\' ->
              if i + 1 >= n then Error "dangling backslash in token"
              else (
                match s.[i + 1] with
                | '\\' ->
                    Buffer.add_char buf '\\';
                    loop (i + 2)
                | 't' ->
                    Buffer.add_char buf '\t';
                    loop (i + 2)
                | 'n' ->
                    Buffer.add_char buf '\n';
                    loop (i + 2)
                | 'r' ->
                    Buffer.add_char buf '\r';
                    loop (i + 2)
                | c -> Error (Printf.sprintf "bad escape \\%c in token" c))
          | c ->
              Buffer.add_char buf c;
              loop (i + 1)
      in
      loop 0
    end

  let parse_header line =
    match String.split_on_char ' ' line with
    | [ "spamlab-token-db"; version; nspam; nham ] -> (
        match int_of_string_opt version with
        | Some ((1 | 2 | 3) as v) -> (
            match (int_of_string_opt nspam, int_of_string_opt nham) with
            | Some nspam, Some nham when nspam >= 0 && nham >= 0 ->
                Ok (v, nspam, nham)
            | _ -> Error "bad message counts in header")
        | Some v -> Error (Printf.sprintf "unsupported token-db version %d" v)
        | None -> Error "not a spamlab token-db file")
    | _ -> Error "not a spamlab token-db file"

  let parse_footer line =
    match
      Scanf.sscanf_opt line "#spamlab-db-footer crc32=%x entries=%d%!"
        (fun crc entries -> (crc, entries))
    with
    | Some (crc, entries) as f
      when line = Printf.sprintf "%scrc32=%08x entries=%d" footer_prefix crc entries
      ->
        f
    | _ -> None

  let parse_entry ~version ~nspam ~nham line =
    let ( let* ) r f = Result.bind r f in
    match String.split_on_char '\t' line with
    | [ raw; spam; ham ] -> (
        let* token = if version = 1 then Ok raw else unescape_token raw in
        match (int_of_string_opt spam, int_of_string_opt ham) with
        | Some spam, Some ham ->
            if spam < 0 || ham < 0 then
              Error (Printf.sprintf "negative count on line %S" line)
            else if spam > nspam || ham > nham then
              Error
                (Printf.sprintf
                   "count exceeds header message totals on line %S" line)
            else Ok (token, spam, ham)
        | _ -> Error (Printf.sprintf "bad counts on line %S" line))
    | _ -> Error (Printf.sprintf "bad line %S" line)

  let parse_strict ~load_row s =
    let ( let* ) r f = Result.bind r f in
    if String.trim s = "" then Error "empty token-db file"
    else
      let header, rest =
        match String.split_on_char '\n' s with
        | header :: rest -> (header, rest)
        | [] -> assert false
      in
      let* version, nspam, nham = parse_header header in
      let seen = Hashtbl.create 4096 in
      let crc = ref (crc_feed crc_init (header ^ "\n")) in
      let entries = ref 0 in
      let footer = ref None in
      let finish () =
        match !footer with
        | None ->
            if version >= 3 then
              Error "truncated file: missing checksum footer"
            else
              Ok { version; nspam; nham; entries = !entries; checksum = `Absent }
        | Some (fcrc, fentries) ->
            if fentries <> !entries then
              Error
                (Printf.sprintf
                   "entry count mismatch: footer says %d, file has %d" fentries
                   !entries)
            else if fcrc <> crc_finish !crc then
              Error "checksum mismatch: file is corrupted or truncated"
            else Ok { version; nspam; nham; entries = !entries; checksum = `Ok }
      in
      let rec loop = function
        | [] -> finish ()
        | line :: rest when !footer <> None ->
            if line = "" then loop rest
            else Error "content after checksum footer"
        | line :: rest when String.starts_with ~prefix:footer_prefix line -> (
            match parse_footer line with
            | Some f ->
                footer := Some f;
                loop rest
            | None -> Error (Printf.sprintf "bad footer line %S" line))
        | "" :: rest ->
            crc := crc_feed !crc "\n";
            loop rest
        | line :: rest ->
            crc := crc_feed !crc (line ^ "\n");
            let* token, spam, ham = parse_entry ~version ~nspam ~nham line in
            if Hashtbl.mem seen token then
              Error (Printf.sprintf "duplicate token %S" token)
            else begin
              Hashtbl.replace seen token ();
              load_row token ~spam ~ham;
              incr entries;
              loop rest
            end
      in
      let rest =
        match List.rev rest with "" :: r -> List.rev r | _ -> rest
      in
      loop rest

  let guard f =
    match f () with
    | r -> r
    | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
    | exception exn -> Error ("token-db parse error: " ^ Printexc.to_string exn)

  let verify_string ~load_row s = guard (fun () -> parse_strict ~load_row s)

  let salvage_string ~load_row s =
    guard @@ fun () ->
    if String.trim s = "" then Error "empty token-db file"
    else
      let header, rest =
        match String.split_on_char '\n' s with
        | header :: rest -> (header, rest)
        | [] -> assert false
      in
      match parse_header header with
      | Error e -> Error e
      | Ok (version, nspam, nham) ->
          let seen = Hashtbl.create 4096 in
          let kept = ref 0 and dropped = ref 0 in
          let crc = ref (crc_feed crc_init (header ^ "\n")) in
          let footer = ref None in
          List.iter
            (fun line ->
              if line = "" then (
                if !footer = None then crc := crc_feed !crc "\n")
              else if String.starts_with ~prefix:footer_prefix line then
                match parse_footer line with
                | Some f -> footer := Some f
                | None -> incr dropped
              else begin
                if !footer = None then crc := crc_feed !crc (line ^ "\n");
                match parse_entry ~version ~nspam ~nham line with
                | Ok (token, spam, ham) when not (Hashtbl.mem seen token) ->
                    Hashtbl.replace seen token ();
                    load_row token ~spam ~ham;
                    incr kept
                | Ok _ | Error _ -> incr dropped
              end)
            rest;
          let checksum_ok =
            Option.map (fun (fcrc, _) -> fcrc = crc_finish !crc) !footer
          in
          Ok
            {
              s_version = version;
              s_nspam = nspam;
              s_nham = nham;
              kept = !kept;
              dropped = !dropped;
              checksum_ok;
            }

  (* The store's reading of one user block (its [u] line, then
     [nrows] rows): [set_totals] gets the block's message totals,
     [set_row] each row in order — zero counts included, every row
     interned — until the first bad one raises [Sys_error]. *)
  let next_line data pos =
    if pos >= String.length data then None
    else
      match String.index_from_opt data pos '\n' with
      | None -> None
      | Some nl -> Some (String.sub data pos (nl - pos), nl + 1)

  let parse_user_line line =
    match String.split_on_char '\t' line with
    | [ "u"; eu; ns; nh; nr ] -> (
        match
          ( unescape_token eu,
            int_of_string_opt ns,
            int_of_string_opt nh,
            int_of_string_opt nr )
        with
        | Ok user, Some nspam, Some nham, Some nrows
          when nspam >= 0 && nham >= 0 && nrows >= 0 ->
            Some (user, nspam, nham, nrows)
        | _ -> None)
    | _ -> None

  let apply_block ~set_totals ~set_row block =
    match next_line block 0 with
    | None -> raise (Sys_error "store: truncated user block")
    | Some (uline, p0) -> (
        match parse_user_line uline with
        | None -> raise (Sys_error "store: bad user block header")
        | Some (_, nspam, nham, nrows) ->
            set_totals ~nspam ~nham;
            let pos = ref p0 in
            for _ = 1 to nrows do
              match next_line block !pos with
              | None -> raise (Sys_error "store: truncated user block")
              | Some (line, nxt) -> (
                  pos := nxt;
                  match String.split_on_char '\t' line with
                  | [ etok; s; h ] -> (
                      match
                        ( unescape_token etok,
                          int_of_string_opt s,
                          int_of_string_opt h )
                      with
                      | Ok tok, Some spam, Some ham when spam >= 0 && ham >= 0
                        ->
                          set_row tok ~spam ~ham
                      | _ -> raise (Sys_error "store: bad row in user block"))
                  | _ -> raise (Sys_error "store: bad row in user block"))
            done)
end

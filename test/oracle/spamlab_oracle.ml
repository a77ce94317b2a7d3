(* Reference implementations kept as differential oracles for lib/.
   Each is the hand-written list/string form a lib/ path replaced, and
   shares as little as possible with it.

   The string tokenizers: the SpamBayes, BogoFilter and SpamAssassin
   tokenizers on allocated strings, an oracle for the span tokenizers
   in lib/tokenizer.  They share nothing with the span path except the
   pieces that exist only once (URL cracking, HTML deconstruction, MIME
   decoding, header and address parsing): word splitting, punctuation
   stripping, the URL shape test and every tokenizer rule are written
   out again here.  The tests compare [Tokenizer.tokenize] with these
   streams as sequences, token for token.

   The list scoring pipeline: list Fisher and list δ(E) selection, an
   oracle for [Fisher.indicator] and [Classify.score_probs]. *)

module Html = Spamlab_tokenizer.Html

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
   and its length: the list pipeline [Tokenizer.unique_counted_tokens]
   must agree with. *)
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
  module Score = Spamlab_spambayes.Score

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
        let score = Score.smoothed options db token in
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

  (* The pre-cache scoring path: uncached probabilities by id, eager
     per-candidate clue materialization, list selection.  [bench
     classify] also times it as the baseline the cached hot path is
     compared against. *)
  let score_ids_reference (options : Options.t) db ids =
    let candidates = ref [] in
    Array.iter
      (fun id ->
        let score = Score.smoothed_id options db id in
        if Float.abs (score -. 0.5) >= options.minimum_prob_strength then
          candidates := { Classify.token = Intern.to_string id; score } :: !candidates)
      ids;
    score_clues options !candidates
end

let is_ascii_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

(* Byte classes of the word scanner, one table lookup per byte:
   separators, lowercase word bytes (digits and ['$-] included),
   uppercase letters, the two marks a tokenizer asks about (':' for the
   URL shape, '@' for addresses), and stripped punctuation. *)
let c_space = '\000'
let c_word = '\001'
let c_upper = '\002'
let c_colon = '\003'
let c_at = '\004'
let c_punct = '\005'

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '\t' | '\n' | '\r' -> c_space
      | 'A' .. 'Z' -> c_upper
      | 'a' .. 'z' | '0' .. '9' | '\'' | '$' | '-' -> c_word
      | ':' -> c_colon
      | '@' -> c_at
      | _ -> c_punct)

let class_of s i = String.unsafe_get classes (Char.code (String.unsafe_get s i))

(* Scratch buffer for lowercasing a word slice in place; one per domain
   so pool workers never contend.  Grown geometrically, reused for every
   word of every message the domain ingests. *)
let lower_scratch : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

(* Deliver [s.[lo .. lo+wlen-1]] lowercased, its first uppercase byte at
   [upper] (or none when [upper < 0]): as a slice of [s] when it holds
   no uppercase byte, else copied into the scratch, which is only ever
   read through this slice before the next word overwrites it. *)
let emit_word scratch s lo wlen upper colon at f =
  if upper < 0 then f s lo wlen colon at
  else begin
    if Bytes.length !scratch < wlen then begin
      let cap = ref (2 * Bytes.length !scratch) in
      while !cap < wlen do
        cap := 2 * !cap
      done;
      scratch := Bytes.create !cap
    end;
    let b = !scratch in
    Bytes.blit_string s lo b 0 (upper - lo);
    for i = upper - lo to wlen - 1 do
      let c = String.unsafe_get s (lo + i) in
      Bytes.unsafe_set b i
        (if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c)
    done;
    f (Bytes.unsafe_to_string b) 0 wlen colon at
  end

(* One pass per word: the next word byte starts it (leading
   punctuation, like separators, is skipped), and the scan to the end
   of its whitespace run records the last word byte, the first
   uppercase byte and the first ':' and '@'.  A mark past the last word
   byte lies in stripped trailing punctuation and is reported absent.
   Lowercasing cannot change whether a byte is a word byte, so
   punctuation is stripped on the raw buffer by offsets.  Loops, not
   local [let rec]s: without flambda each of those would allocate a
   closure per word. *)
let iter_marked_words s off len f =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Text.iter_word_spans";
  let limit = off + len in
  let scratch = Domain.DLS.get lower_scratch in
  let i = ref off in
  while !i < limit do
    while
      !i < limit
      &&
      let c = class_of s !i in
      c <> c_word && c <> c_upper
    do
      incr i
    done;
    if !i < limit then begin
      let lo = !i in
      let hi = ref lo and upper = ref (-1) and colon = ref (-1) and at = ref (-1) in
      if class_of s lo = c_upper then upper := lo;
      incr i;
      while !i < limit && class_of s !i <> c_space do
        let c = class_of s !i in
        if c = c_word then hi := !i
        else if c = c_upper then begin
          hi := !i;
          if !upper < 0 then upper := !i
        end
        else if c = c_colon then (if !colon < 0 then colon := !i)
        else if c = c_at then if !at < 0 then at := !i;
        incr i
      done;
      let hi = !hi in
      let wlen = hi - lo + 1 in
      let colon = if !colon >= 0 && !colon < hi then !colon - lo else wlen in
      let at = if !at >= 0 && !at < hi then !at - lo else wlen in
      emit_word scratch s lo wlen !upper colon at f
    end
  done

let iter_word_spans s off len f =
  iter_marked_words s off len (fun buf woff wlen _ _ -> f buf woff wlen)

let words s =
  let acc = ref [] in
  iter_word_spans s 0 (String.length s) (fun buf off len ->
      acc := String.sub buf off len :: !acc);
  List.rev !acc

(* Bytes >= 0x80 in a slice: 8-bit accounting over a raw body without
   materializing it. *)
let count_high_sub s off len =
  let acc = ref 0 in
  for i = off to off + len - 1 do
    if Char.code (String.unsafe_get s i) >= 0x80 then incr acc
  done;
  !acc

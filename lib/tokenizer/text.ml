let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_ascii_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

let is_word_char c =
  is_ascii_alpha c || is_digit c || c = '\'' || c = '$' || c = '-'

let is_upper c = c >= 'A' && c <= 'Z'

(* Scratch buffer for lowercasing a word slice in place; one per domain
   so pool workers never contend.  Grown geometrically, reused for every
   word of every message the domain ingests. *)
let lower_scratch : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

(* Deliver the word [s.[lo .. hi]] (inclusive, non-empty, word chars at
   both ends) to [f], lowercased: as a slice of [s] when it holds no
   uppercase byte, else copied into the scratch, which is only ever
   read through this slice before the next word overwrites it. *)
let emit_word scratch s lo hi f =
  let wlen = hi - lo + 1 in
  let j = ref lo in
  while !j <= hi && not (is_upper (String.unsafe_get s !j)) do
    incr j
  done;
  if !j > hi then f s lo wlen
  else begin
    if Bytes.length !scratch < wlen then begin
      let cap = ref (2 * Bytes.length !scratch) in
      while !cap < wlen do
        cap := 2 * !cap
      done;
      scratch := Bytes.create !cap
    end;
    let b = !scratch in
    Bytes.blit_string s lo b 0 (!j - lo);
    for i = !j - lo to wlen - 1 do
      let c = String.unsafe_get s (lo + i) in
      Bytes.unsafe_set b i
        (if is_upper c then Char.unsafe_chr (Char.code c + 32) else c)
    done;
    f (Bytes.unsafe_to_string b) 0 wlen
  end

(* Every canonical word (lowercased, punctuation stripped, non-empty)
   of [s.[off .. off+len-1]] is delivered as a slice
   [(buf, woff, wlen)] instead of an allocated string.
   Lowercasing cannot change whether a byte is a word character, so
   punctuation is stripped on the raw buffer by offsets.  Loops, not
   local [let rec]s: without flambda each of those would allocate a
   closure per word. *)
let iter_word_spans s off len f =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Text.iter_word_spans";
  let limit = off + len in
  let scratch = Domain.DLS.get lower_scratch in
  let i = ref off in
  while !i < limit do
    while !i < limit && is_space (String.unsafe_get s !i) do
      incr i
    done;
    let start = !i in
    while !i < limit && not (is_space (String.unsafe_get s !i)) do
      incr i
    done;
    let lo = ref start and hi = ref (!i - 1) in
    while !lo <= !hi && not (is_word_char (String.unsafe_get s !lo)) do
      incr lo
    done;
    while !hi >= !lo && not (is_word_char (String.unsafe_get s !hi)) do
      decr hi
    done;
    if !hi >= !lo then emit_word scratch s !lo !hi f
  done

let words s =
  let acc = ref [] in
  iter_word_spans s 0 (String.length s) (fun buf off len ->
      acc := String.sub buf off len :: !acc);
  List.rev !acc

let has_high_bit s = String.exists (fun c -> Char.code c >= 0x80) s

(* Bytes >= 0x80 in a slice: 8-bit accounting over a raw body without
   materializing it. *)
let count_high_sub s off len =
  let acc = ref 0 in
  for i = off to off + len - 1 do
    if Char.code (String.unsafe_get s i) >= 0x80 then incr acc
  done;
  !acc

let count_occurrences c s =
  String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s

type content_type = {
  media_type : string;
  subtype : string;
  parameters : (string * string) list;
}

let text_plain = { media_type = "text"; subtype = "plain"; parameters = [] }

let unquote v =
  let n = String.length v in
  if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
  else v

let content_type_of_string s =
  match String.split_on_char ';' s with
  | [] -> Error "empty content type"
  | main :: params -> (
      match String.split_on_char '/' (String.trim main) with
      | [ media_type; subtype ] when media_type <> "" && subtype <> "" ->
          let parameters =
            List.filter_map
              (fun p ->
                match String.index_opt p '=' with
                | None -> None
                | Some i ->
                    let name =
                      String.lowercase_ascii (String.trim (String.sub p 0 i))
                    in
                    let value =
                      unquote
                        (String.trim
                           (String.sub p (i + 1) (String.length p - i - 1)))
                    in
                    if name = "" then None else Some (name, value))
              params
          in
          Ok
            {
              media_type = String.lowercase_ascii media_type;
              subtype = String.lowercase_ascii subtype;
              parameters;
            }
      | _ -> Error (Printf.sprintf "malformed content type %S" s))

let parameter t name =
  List.assoc_opt (String.lowercase_ascii name) t.parameters

(* ------------------------------------------------------------------ *)
(* The decoder                                                         *)

type text_kind = Plain | Html

(* The walk's state, one per domain.  A leaf or a part body is a region
   of either the message body ([body]) or the scratch ([out]), which
   only ever appends during a walk: growing it copies what it holds, so
   an offset into it stays valid, and a region being read always lies
   below the bytes being written. *)
type leaves = {
  mutable body : string;
  mutable out : Bytes.t;
  mutable used : int;
  mutable leaf : int array;  (* per leaf: kind-and-source tag, off, len *)
  mutable count : int;
}

let state : leaves Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { body = ""; out = Bytes.create 4096; used = 0; leaf = Array.make 48 0; count = 0 })

let source t in_out = if in_out then Bytes.unsafe_to_string t.out else t.body

let reserve t n =
  if t.used + n > Bytes.length t.out then begin
    let cap = ref (2 * Bytes.length t.out) in
    while !cap < t.used + n do
      cap := 2 * !cap
    done;
    let out = Bytes.create !cap in
    Bytes.blit t.out 0 out 0 t.used;
    t.out <- out
  end

let add_leaf t kind in_out off len =
  if 3 * (t.count + 1) > Array.length t.leaf then begin
    let bigger = Array.make (2 * Array.length t.leaf) 0 in
    Array.blit t.leaf 0 bigger 0 (3 * t.count);
    t.leaf <- bigger
  end;
  let i = 3 * t.count in
  t.leaf.(i) <- (if kind = Html then 2 else 0) lor if in_out then 1 else 0;
  t.leaf.(i + 1) <- off;
  t.leaf.(i + 2) <- len;
  t.count <- t.count + 1

(* Transfer decoders (RFC 4648, RFC 2045 §6.7), region to scratch.
   Liberal as real mail needs: base64 skips whitespace and '=' anywhere
   and fails, keeping nothing, on any other byte outside the alphabet;
   quoted-printable drops soft breaks and keeps a '=' that starts no
   escape. *)
let base64_values =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | 'A' .. 'Z' -> i - 65
        | 'a' .. 'z' -> i - 97 + 26
        | '0' .. '9' -> i - 48 + 52
        | '+' -> 62
        | '/' -> 63
        | ' ' | '\t' | '\n' | '\r' | '=' -> 64
        | _ -> 65))

(* Each decoder writes the region's decoded bytes after [t.used] and
   returns their count, or [-1] (nothing kept) when base64 meets a
   byte outside the alphabet. *)
let base64_into t s off len =
  reserve t len;
  let out = t.out and w = ref t.used in
  let acc = ref 0 and bits = ref 0 and i = ref off and bad = ref false in
  while (not !bad) && !i < off + len do
    let v = Char.code (String.unsafe_get base64_values (Char.code (String.unsafe_get s !i))) in
    if v < 64 then begin
      acc := (!acc lsl 6) lor v;
      bits := !bits + 6;
      if !bits >= 8 then begin
        bits := !bits - 8;
        Bytes.unsafe_set out !w (Char.unsafe_chr ((!acc lsr !bits) land 0xFF));
        incr w
      end
    end
    else if v > 64 then bad := true;
    incr i
  done;
  if !bad then -1 else !w - t.used

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'A' .. 'F' -> Char.code c - 55
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

let quoted_printable_into t s off len =
  reserve t len;
  let out = t.out and w = ref t.used and i = ref off and stop = off + len in
  while !i < stop do
    let c = String.unsafe_get s !i in
    if c <> '=' then begin
      Bytes.unsafe_set out !w c;
      incr w;
      incr i
    end
    else if !i + 1 < stop && s.[!i + 1] = '\n' then i := !i + 2
    else if !i + 2 < stop && s.[!i + 1] = '\r' && s.[!i + 2] = '\n' then i := !i + 3
    else begin
      let hi = if !i + 2 < stop then hex_value s.[!i + 1] else -1 in
      let lo = if hi >= 0 then hex_value s.[!i + 2] else -1 in
      if lo >= 0 then begin
        Bytes.unsafe_set out !w (Char.unsafe_chr ((hi lsl 4) lor lo));
        i := !i + 3
      end
      else begin
        Bytes.unsafe_set out !w '=';
        incr i
      end;
      incr w
    end
  done;
  !w - t.used

(* A text leaf, transfer-decoded; a failed base64 decode or an unknown
   encoding keeps the bytes as they are. *)
let text_leaf t kind cte in_out off len =
  let encoding =
    match cte with None -> "" | Some e -> String.lowercase_ascii (String.trim e)
  in
  let decoded =
    if encoding = "base64" then base64_into t (source t in_out) off len
    else if encoding = "quoted-printable" then
      quoted_printable_into t (source t in_out) off len
    else -1
  in
  if decoded < 0 then add_leaf t kind in_out off len
  else begin
    add_leaf t kind true t.used decoded;
    t.used <- t.used + decoded
  end

(* Does the line [s.[lo .. hi-1]], trimmed as [String.trim] does, equal
   [lit]? *)
let trimmed_equals s lo hi lit =
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_ws s.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_ws s.[!hi - 1] do
    decr hi
  done;
  let n = String.length lit in
  !hi - !lo = n
  &&
  let i = ref 0 in
  while !i < n && s.[!lo + !i] = lit.[!i] do
    incr i
  done;
  !i = n

let max_depth = 4

(* The textual leaves of a message or part at [depth], in document
   order: multipart bodies split on their boundary lines (the preamble
   and epilogue discarded, per RFC 2046) and walked part by part; text
   leaves transfer-decoded; other leaves skipped.  A multipart body
   with no boundary, or none of whose parts parses, is one Plain leaf
   of its bytes as they are. *)
let rec walk t depth ct cte in_out off len =
  if depth <= max_depth then begin
    (* Text/plain when absent or malformed (RFC 2045 §5.2). *)
    let ct =
      match Option.map content_type_of_string ct with Some (Ok ct) -> ct | _ -> text_plain
    in
    if ct.media_type = "multipart" then begin
      let split =
        match parameter ct "boundary" with
        | None | Some "" -> false
        | Some boundary -> split t depth ("--" ^ boundary) in_out off len
      in
      if not split then add_leaf t Plain in_out off len
    end
    else if ct.media_type = "text" then
      text_leaf t (if ct.subtype = "html" then Html else Plain) cte in_out off len
  end

(* Walk the parts between delimiter lines: a part runs from the line
   after a delimiter to the line before the next delimiter, the
   terminator or the end.  True if any part parsed. *)
and split t depth delimiter in_out off len =
  let terminator = delimiter ^ "--" in
  let s = source t in_out and stop = off + len in
  let parsed = ref false and part = ref (-1) and pos = ref off and fin = ref false in
  let flush_until e =
    if !part >= 0 then begin
      let p = min !part stop in
      if walk_part t depth s in_out p (max 0 (e - p)) then parsed := true
    end
  in
  while not !fin do
    let lend = Rfc2822.line_end s !pos stop in
    let last = trimmed_equals s !pos lend terminator in
    if last || trimmed_equals s !pos lend delimiter then begin
      flush_until (!pos - 1);
      part := lend + 1
    end;
    if (not last) && lend >= stop then flush_until stop;
    if last || lend >= stop then fin := true else pos := lend + 1
  done;
  !parsed

(* A part: its header block as [Rfc2822.parse] reads it (the first
   Content-Type and Content-Transfer-Encoding are the ones that count),
   then its body, which loses one CR per line as a parsed part's does.
   False when the header block is malformed. *)
and walk_part t depth s in_out off len =
  let ct = ref None and cte = ref None in
  let is_ct s off len = Header.name_equal_sub s off len "content-type" in
  let bstart =
    Rfc2822.scan_headers s off (off + len)
      ~want:(fun s off len ->
        is_ct s off len || Header.name_equal_sub s off len "content-transfer-encoding")
      (fun name value ->
        let first = if is_ct name 0 (String.length name) then ct else cte in
        if !first = None then first := Some value)
  in
  bstart >= 0
  &&
  (let room n = reserve t n; (t.out, t.used) in
   let start = t.used in
   let stop = Rfc2822.fixup_body ~unquote:false s bstart (off + len) ~room in
   if stop < 0 then walk t (depth + 1) !ct !cte in_out bstart (off + len - bstart)
   else begin
     t.used <- stop;
     walk t (depth + 1) !ct !cte true start (stop - start)
   end;
   true)

let text_leaves headers body off len =
  let t = Domain.DLS.get state in
  t.body <- body;
  t.used <- 0;
  t.count <- 0;
  let cte = Header.find headers "content-transfer-encoding" in
  walk t 0 (Header.find headers "content-type") cte false off len;
  if t.count = 0 then text_leaf t Plain cte false off len;
  t

let iter_leaves t f =
  for i = 0 to t.count - 1 do
    let tag = t.leaf.(3 * i) in
    f
      (if tag land 2 <> 0 then Html else Plain)
      (source t (tag land 1 <> 0))
      t.leaf.((3 * i) + 1)
      t.leaf.((3 * i) + 2)
  done

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)

let make_html ?(headers = Header.empty) body =
  Message.make
    ~headers:(Header.replace headers "Content-Type" "text/html; charset=us-ascii")
    body

let with_base64_transfer msg =
  let headers =
    Header.replace (Message.headers msg) "Content-Transfer-Encoding" "base64"
  in
  Message.make ~headers (Encoding.base64_encode (Message.body msg))

let with_quoted_printable_transfer msg =
  let headers =
    Header.replace (Message.headers msg) "Content-Transfer-Encoding"
      "quoted-printable"
  in
  Message.make ~headers (Encoding.quoted_printable_encode (Message.body msg))

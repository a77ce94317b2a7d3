let tracked_tags =
  [| "a"; "img"; "font"; "table"; "iframe"; "script"; "style"; "form"; "input" |]

let tracked_tokens = Array.map (fun tag -> "html:" ^ tag) tracked_tags

(* Per-domain scratch: the entity-decoded input, the visible text and
   the href/src value slices (offset and length pairs into the decoded
   input). *)
type scratch = {
  mutable decoded : Bytes.t;
  mutable text : Bytes.t;
  mutable urls : int array;
  mutable nurls : int;
}

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { decoded = Bytes.create 1024; text = Bytes.create 1024; urls = Array.make 16 0; nurls = 0 })

let ensure b n =
  if Bytes.length b >= n then b
  else begin
    let cap = ref (2 * Bytes.length b) in
    while !cap < n do
      cap := 2 * !cap
    done;
    Bytes.create !cap
  end

let add_url sc off len =
  if 2 * (sc.nurls + 1) > Array.length sc.urls then begin
    let bigger = Array.make (2 * Array.length sc.urls) 0 in
    Array.blit sc.urls 0 bigger 0 (2 * sc.nurls);
    sc.urls <- bigger
  end;
  sc.urls.(2 * sc.nurls) <- off;
  sc.urls.((2 * sc.nurls) + 1) <- len;
  sc.nurls <- sc.nurls + 1

let equal_ci = Spamlab_email.Header.name_equal_sub

(* The character an entity [s.[off .. off+len-1]] (between '&' and ';')
   stands for, or [-1]: the named entities that matter for
   tokenization, and decimal escapes of bytes 1–255. *)
let entity_code s off len =
  if equal_ci s off len "amp" then Char.code '&'
  else if equal_ci s off len "lt" then Char.code '<'
  else if equal_ci s off len "gt" then Char.code '>'
  else if equal_ci s off len "quot" then Char.code '"'
  else if equal_ci s off len "apos" then Char.code '\''
  else if equal_ci s off len "nbsp" then Char.code ' '
  else if len > 1 && s.[off] = '#' then begin
    let code = ref 0 and i = ref (off + 1) in
    while !i < off + len && s.[!i] >= '0' && s.[!i] <= '9' do
      code := (10 * !code) + Char.code s.[!i] - 48;
      incr i
    done;
    if !i = off + len && !code > 0 && !code < 256 then !code else -1
  end
  else -1

(* Entities decode in one pass: only a ';' at most 8 bytes after the
   '&' can close one, so the search for it is bounded and the pass
   linear.  Returns the decoded length. *)
let decode_entities_into sc s off len =
  sc.decoded <- ensure sc.decoded len;
  let out = sc.decoded and w = ref 0 and i = ref off and stop = off + len in
  while !i < stop do
    let c = String.unsafe_get s !i in
    let code =
      if c <> '&' then -1
      else begin
        let lim = min (stop - 1) (!i + 8) and semi = ref (!i + 1) in
        while !semi <= lim && s.[!semi] <> ';' do
          incr semi
        done;
        if !semi > lim then -1
        else
          let code = entity_code s (!i + 1) (!semi - !i - 1) in
          if code >= 0 then i := !semi;
          code
      end
    in
    Bytes.unsafe_set out !w (if code >= 0 then Char.unsafe_chr code else c);
    incr w;
    incr i
  done;
  !w

let alnum_end s i n =
  let j = ref i in
  while
    !j < n
    && (Text.is_ascii_alpha (String.unsafe_get s !j) || Text.is_digit (String.unsafe_get s !j))
  do
    incr j
  done;
  !j

let index_from s i n c =
  let j = ref i in
  while !j < n && String.unsafe_get s !j <> c do
    incr j
  done;
  !j

(* Record every [attr] value of the tag [s.[lo .. hi-1]] (its '<'
   through the byte before its '>'): the bytes after each
   case-insensitive [attr] match, up to the matching quote, or unquoted
   up to a space, with at least one byte after the match. *)
let tag_urls sc s lo hi attr =
  let alen = String.length attr and from = ref lo in
  while !from + alen < hi do
    if equal_ci s !from alen attr then begin
      let vstart = !from + alen in
      let quoted = s.[vstart] = '"' || s.[vstart] = '\'' in
      let vstart = if quoted then vstart + 1 else vstart in
      let j = ref vstart in
      while
        !j < hi
        && (if quoted then s.[!j] <> s.[vstart - 1] else s.[!j] <> ' ' && s.[!j] <> '>')
      do
        incr j
      done;
      if !j > vstart then add_url sc vstart (!j - vstart);
      from := !j
    end
    else incr from
  done

(* Past the element content that ends with the closing tag [close]
   ("script" or "style"): after that tag's '>', or the end. *)
let skip_element s i n close =
  let pos = ref i and stop = ref (-1) in
  while !stop < 0 do
    let lt = index_from s !pos n '<' in
    if lt >= n then stop := n
    else begin
      let closing = lt + 1 < n && s.[lt + 1] = '/' in
      let ns = if closing then lt + 2 else lt + 1 in
      let ne = alnum_end s ns n in
      if closing && equal_ci s ns (ne - ns) close then
        stop := min n (index_from s lt n '>' + 1)
      else pos := lt + 1
    end
  done;
  !stop

let iter buf off len ~meta ~url ~text =
  let sc = Domain.DLS.get scratch in
  let s, start, n =
    if index_from buf off (off + len) '&' < off + len then
      let dlen = decode_entities_into sc buf off len in
      (Bytes.unsafe_to_string sc.decoded, 0, dlen)
    else (buf, off, off + len)
  in
  sc.text <- ensure sc.text (n - start);
  sc.nurls <- 0;
  let out = sc.text and w = ref 0 and i = ref start in
  while !i < n do
    let lt = index_from s !i n '<' in
    Bytes.blit_string s !i out !w (lt - !i);
    w := !w + (lt - !i);
    i := lt;
    if lt < n then
      if lt + 3 < n && s.[lt + 1] = '!' && s.[lt + 2] = '-' && s.[lt + 3] = '-' then begin
        (* A comment, through its "-->" or the end. *)
        let j = ref (lt + 4) in
        while !j + 2 < n && not (s.[!j] = '-' && s.[!j + 1] = '-' && s.[!j + 2] = '>') do
          incr j
        done;
        i := if !j + 2 < n then !j + 3 else n
      end
      else begin
        let closing = lt + 1 < n && s.[lt + 1] = '/' in
        let ns = if closing then lt + 2 else lt + 1 in
        let ne = alnum_end s ns n in
        let gt = index_from s lt n '>' in
        if ne > ns && not closing then
          for k = 0 to Array.length tracked_tags - 1 do
            if equal_ci s ns (ne - ns) tracked_tags.(k) then meta tracked_tokens.(k)
          done;
        tag_urls sc s lt gt "href=";
        tag_urls sc s lt gt "src=";
        (* Tags act as word separators. *)
        Bytes.unsafe_set out !w ' ';
        incr w;
        let next = min n (gt + 1) in
        i :=
          if closing then next
          else if equal_ci s ns (ne - ns) "script" then skip_element s next n "script"
          else if equal_ci s ns (ne - ns) "style" then skip_element s next n "style"
          else next
      end
  done;
  for u = 0 to sc.nurls - 1 do
    url s sc.urls.(2 * u) sc.urls.((2 * u) + 1)
  done;
  text (Bytes.unsafe_to_string out) 0 !w

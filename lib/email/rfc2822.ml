let fold_value v =
  (* Replace embedded newlines with RFC folding: newline + tab. *)
  String.concat "\n\t" (String.split_on_char '\n' v)

let print msg =
  let buffer = Buffer.create 512 in
  Header.iter
    (fun name value ->
      Buffer.add_string buffer (Header.canonical_name name);
      Buffer.add_string buffer ": ";
      Buffer.add_string buffer (fold_value value);
      Buffer.add_char buffer '\n')
    (Message.headers msg);
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (Message.body msg);
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Wire text by offsets                                                *)

let line_end s pos stop =
  let i = ref pos in
  while !i < stop && String.unsafe_get s !i <> '\n' do
    incr i
  done;
  !i

(* The header block at the start of [s.[off .. stop-1]], by offsets,
   as [parse] reads a message's.  A field whose name [want] rejects costs no string; its
   continuation lines go with it. *)
let scan_headers s off stop ~want f =
  (* 0: no field yet, 1: a wanted field is open, 2: an unwanted one. *)
  let state = ref 0 and name = ref "" and pieces = ref [] in
  let flush () =
    if !state = 1 then
      f !name (match !pieces with [ v ] -> v | ps -> String.concat " " (List.rev ps))
  in
  let pos = ref off and body = ref min_int in
  while !body = min_int do
    let lend = line_end s !pos stop in
    let lstop = if lend > !pos && s.[lend - 1] = '\r' then lend - 1 else lend in
    if !pos >= stop || lstop = !pos then begin
      flush ();
      body := min (lend + 1) stop
    end
    else if s.[!pos] = ' ' || s.[!pos] = '\t' then begin
      if !state = 0 then body := -1 - !pos
      else if !state = 1 then
        pieces := String.trim (String.sub s !pos (lstop - !pos)) :: !pieces;
      pos := lend + 1
    end
    else begin
      flush ();
      let colon = ref !pos in
      while !colon < lstop && s.[!colon] <> ':' && s.[!colon] <> ' ' && s.[!colon] <> '\t' do
        incr colon
      done;
      if !colon = !pos || !colon = lstop || s.[!colon] <> ':' then body := -1 - !pos
      else begin
        if want s !pos (!colon - !pos) then begin
          state := 1;
          name := String.sub s !pos (!colon - !pos);
          pieces := [ String.trim (String.sub s (!colon + 1) (lstop - !colon - 1)) ]
        end
        else state := 2;
        pos := lend + 1
      end
    end
  done;
  !body

let from_at s pos stop =
  pos + 5 <= stop && s.[pos] = 'F' && s.[pos + 1] = 'r' && s.[pos + 2] = 'o'
  && s.[pos + 3] = 'm' && s.[pos + 4] = ' '

let quoted_from s pos lstop =
  let i = ref pos in
  while !i < lstop && s.[!i] = '>' do
    incr i
  done;
  !i > pos && from_at s !i lstop

(* One pass: nothing is copied until the first line that needs a fix;
   then [room] supplies the space, the lines before it go there at
   once, and every line after it follows. *)
let fixup_body ~unquote s off stop ~room =
  let pos = ref off and out = ref Bytes.empty and w = ref (-1) in
  while !pos <= stop do
    let lend = line_end s !pos stop in
    let lstop = if lend > !pos && s.[lend - 1] = '\r' then lend - 1 else lend in
    let start = if unquote && quoted_from s !pos lstop then !pos + 1 else !pos in
    if !w < 0 && (lstop < lend || start > !pos) then begin
      let b, w0 = room (stop - off) in
      Bytes.blit_string s off b w0 (!pos - off);
      out := b;
      w := w0 + (!pos - off)
    end;
    if !w >= 0 then begin
      Bytes.blit_string s start !out !w (lstop - start);
      w := !w + (lstop - start);
      if lend < stop then begin
        Bytes.unsafe_set !out !w '\n';
        incr w
      end
    end;
    pos := lend + 1
  done;
  !w

(* The string reading is the offset one: fields by [scan_headers], the
   body through [fixup_body]. *)
let parse ?(unquote = false) text =
  let n = String.length text and fields = ref [] in
  let body = scan_headers text 0 n ~want:(fun _ _ _ -> true) (fun f v -> fields := (f, v) :: !fields) in
  if body < 0 then
    let bad = -1 - body in
    Error (Printf.sprintf "malformed header line %S" (String.sub text bad (line_end text bad n - bad)))
  else
    let out = ref Bytes.empty in
    let room k = out := Bytes.create k; (!out, 0) in
    let fixed = fixup_body ~unquote text body n ~room in
    let body = if fixed < 0 then String.sub text body (n - body) else Bytes.sub_string !out 0 fixed in
    Ok (Message.make ~headers:(Header.of_list (List.rev !fields)) body)

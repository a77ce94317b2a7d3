let base64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let base64_line_width = 76

let base64_encode input =
  let n = String.length input in
  let out = Buffer.create ((n * 4 / 3) + (n / 57) + 8) in
  let column = ref 0 in
  let emit c =
    if !column = base64_line_width then begin
      Buffer.add_char out '\n';
      column := 0
    end;
    Buffer.add_char out c;
    incr column
  in
  let byte i = Char.code input.[i] in
  let rec go i =
    if i + 3 <= n then begin
      let b = (byte i lsl 16) lor (byte (i + 1) lsl 8) lor byte (i + 2) in
      emit base64_alphabet.[(b lsr 18) land 63];
      emit base64_alphabet.[(b lsr 12) land 63];
      emit base64_alphabet.[(b lsr 6) land 63];
      emit base64_alphabet.[b land 63];
      go (i + 3)
    end
    else if i + 2 = n then begin
      let b = (byte i lsl 16) lor (byte (i + 1) lsl 8) in
      emit base64_alphabet.[(b lsr 18) land 63];
      emit base64_alphabet.[(b lsr 12) land 63];
      emit base64_alphabet.[(b lsr 6) land 63];
      emit '='
    end
    else if i + 1 = n then begin
      let b = byte i lsl 16 in
      emit base64_alphabet.[(b lsr 18) land 63];
      emit base64_alphabet.[(b lsr 12) land 63];
      emit '=';
      emit '='
    end
  in
  go 0;
  Buffer.contents out

let hex_digit n =
  if n < 10 then Char.chr (n + Char.code '0')
  else Char.chr (n - 10 + Char.code 'A')

let quoted_printable_encode input =
  let out = Buffer.create (String.length input * 2) in
  let column = ref 0 in
  let soft_break () =
    Buffer.add_string out "=\n";
    column := 0
  in
  let emit_raw c =
    if !column >= 75 then soft_break ();
    Buffer.add_char out c;
    incr column
  in
  let emit_escaped c =
    if !column >= 73 then soft_break ();
    Buffer.add_char out '=';
    Buffer.add_char out (hex_digit (Char.code c lsr 4));
    Buffer.add_char out (hex_digit (Char.code c land 0xF));
    column := !column + 3
  in
  let n = String.length input in
  String.iteri
    (fun i c ->
      match c with
      | '\n' ->
          Buffer.add_char out '\n';
          column := 0
      | ' ' | '\t' ->
          (* Trailing whitespace on a line must be escaped. *)
          if i + 1 >= n || input.[i + 1] = '\n' then emit_escaped c
          else emit_raw c
      | '=' -> emit_escaped c
      | '!' .. '~' -> emit_raw c
      | c -> emit_escaped c)
    input;
  Buffer.contents out

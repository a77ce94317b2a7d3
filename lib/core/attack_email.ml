let line_width = 72

let body_of_words words =
  let buffer = Buffer.create 4096 in
  let column = ref 0 in
  List.iter
    (fun w ->
      let len = String.length w in
      if !column = 0 then begin
        Buffer.add_string buffer w;
        column := len
      end
      else if !column + 1 + len > line_width then begin
        Buffer.add_char buffer '\n';
        Buffer.add_string buffer w;
        column := len
      end
      else begin
        Buffer.add_char buffer ' ';
        Buffer.add_string buffer w;
        column := !column + 1 + len
      end)
    words;
  Buffer.contents buffer

let make ~words = Spamlab_email.Message.make (body_of_words words)

let make_with_header ~header ~words =
  Spamlab_email.Message.make ~headers:header (body_of_words words)

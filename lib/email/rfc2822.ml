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

let parse text =
  let lines = String.split_on_char '\n' text in
  (* Accumulate header fields until the first blank line; the remainder
     (joined back with newlines) is the body.  A field carries its
     trimmed pieces in reverse and is unfolded once, at the end, so
     folding costs linear time in its continuation lines. *)
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
      Ok (Message.make ~headers:(Header.of_list unfolded) body)

let parse_exn text =
  match parse text with
  | Ok m -> m
  | Error e -> failwith ("Rfc2822.parse: " ^ e)

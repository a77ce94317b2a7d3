let separator = "From spamlab@localhost Thu Jan  1 00:00:00 1970"

let is_separator line = Rfc2822.from_at line 0 (String.length line)

(* A line needing quoting is any number of '>' followed by "From ". *)
let needs_quoting line =
  let n = String.length line in
  let rec skip i = if i < n && line.[i] = '>' then skip (i + 1) else i in
  Rfc2822.from_at line (skip 0) n

let quote_body body =
  String.split_on_char '\n' body
  |> List.map (fun line -> if needs_quoting line then ">" ^ line else line)
  |> String.concat "\n"

let print messages =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun msg ->
      Buffer.add_string buffer separator;
      Buffer.add_char buffer '\n';
      let quoted = Message.with_body msg (quote_body (Message.body msg)) in
      Buffer.add_string buffer (Rfc2822.print quoted);
      Buffer.add_char buffer '\n')
    messages;
  Buffer.contents buffer

(* Group lines into chunks delimited by separator lines. *)
let chunks_of text =
  let lines = String.split_on_char '\n' text in
  let rec group current chunks = function
    | [] ->
        (* A text ending in '\n' splits into a final "" artifact.  When
           the last real line was a separator, that artifact is the sole
           accumulated element — dropping it keeps "separator at EOF"
           consistent with the mid-file case (two adjacent separators
           yield no empty message) and with the offset-based scanner in
           [Ingest.iter_raw_messages], which never fabricates a chunk
           after a final separator. *)
        let chunks =
          match current with
          | [] | [ "" ] -> chunks
          | _ -> List.rev current :: chunks
        in
        List.rev chunks
    | line :: rest ->
        if is_separator line then
          let chunks =
            if current = [] then chunks else List.rev current :: chunks
          in
          group [] chunks rest
        else group (line :: current) chunks rest
  in
  group [] [] lines

let parse_chunk chunk =
  (* Drop the trailing blank line print added after each body. *)
  let chunk =
    match List.rev chunk with "" :: rest -> List.rev rest | _ -> chunk
  in
  Rfc2822.parse ~unquote:true (String.concat "\n" chunk)

let parse text =
  if String.trim text = "" then Ok []
  else
    match chunks_of text with
    | [] -> Error "mbox: no message separator found"
    | chunks ->
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | chunk :: rest -> (
              match parse_chunk chunk with
              | Ok m -> all (m :: acc) rest
              | Error e -> Error e)
        in
        all [] chunks

let parse_lenient text =
  if String.trim text = "" then ([], 0)
  else
    List.fold_left
      (fun (acc, dropped) chunk ->
        match parse_chunk chunk with
        | Ok m -> (m :: acc, dropped)
        | Error _ -> (acc, dropped + 1))
      ([], 0) (chunks_of text)
    |> fun (acc, dropped) -> (List.rev acc, dropped)

let write_file path messages =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (print messages))

let with_contents path f =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> f (In_channel.input_all ic))

let read_file path = with_contents path parse

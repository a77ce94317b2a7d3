let separator = "From spamlab@localhost Thu Jan  1 00:00:00 1970"

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

(* Message chunks lie between "From " separator lines, found by
   offsets without splitting the buffer into lines.  An all-whitespace
   mailbox is empty; an early-exit scan avoids [String.trim]'s copy of
   the buffer. *)
let chunks ?(off = 0) ?len buf =
  let n = match len with Some len -> off + len | None -> String.length buf in
  if off < 0 || off > n || n > String.length buf then invalid_arg "Mbox.chunks";
  let acc = ref [] in
  let flush start stop = if stop > start then acc := (start, stop - start) :: !acc in
  let rec go line_start chunk_start =
    if line_start >= n then flush chunk_start n
    else begin
      let nl = Rfc2822.line_end buf line_start n in
      if Rfc2822.from_at buf line_start n then begin
        flush chunk_start line_start;
        if nl < n then go (nl + 1) (nl + 1)
      end
      else if nl < n then go (nl + 1) chunk_start
      else flush chunk_start n
    end
  in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let rec blank i = i >= n || (is_ws buf.[i] && blank (i + 1)) in
  if not (blank off) then go off off;
  Array.of_list (List.rev !acc)

(* The newline [print] adds after each body is not the message's. *)
let chunk_end buf off len =
  if len > 0 && buf.[off + len - 1] = '\n' then off + len - 1 else off + len

let chunk_message buf (off, len) =
  Rfc2822.parse ~unquote:true (String.sub buf off (chunk_end buf off len - off))

let parse text =
  match chunks text with
  | [||] when String.trim text <> "" -> Error "mbox: no message separator found"
  | cs ->
      let rec all acc i =
        if i = Array.length cs then Ok (List.rev acc)
        else Result.bind (chunk_message text cs.(i)) (fun m -> all (m :: acc) (i + 1))
      in
      all [] 0

let parse_lenient text =
  let kept, dropped =
    Array.fold_left
      (fun (kept, dropped) c ->
        match chunk_message text c with
        | Ok m -> (m :: kept, dropped)
        | Error _ -> (kept, dropped + 1))
      ([], 0) (chunks text)
  in
  (List.rev kept, dropped)

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

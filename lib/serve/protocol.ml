module Label = Spamlab_spambayes.Label

type verb =
  | Ping
  | Stats
  | Publish
  | Classify
  | Train of Label.gold
  | Untrain of Label.gold
  | Health

type request = { verb : verb; body : string; user : string option }

let magic = "SPAMLAB/1.0"
let default_max_body = 16 * 1024 * 1024
let max_line = 1024

let verb_name = function
  | Ping -> "PING"
  | Stats -> "STATS"
  | Publish -> "PUBLISH"
  | Classify -> "CLASSIFY"
  | Train _ -> "TRAIN"
  | Untrain _ -> "UNTRAIN"
  | Health -> "HEALTH"

let has_body = function
  | Classify | Train _ | Untrain _ -> true
  | Ping | Stats | Publish | Health -> false

let class_of = function
  | Train c | Untrain c -> Some c
  | Ping | Stats | Publish | Classify | Health -> None

(* --------------------------------------------------------------- *)
(* Rendering                                                        *)

let render_request { verb; body; user } =
  let b = Buffer.create (String.length body + 80) in
  Buffer.add_string b (verb_name verb);
  Buffer.add_char b ' ';
  Buffer.add_string b magic;
  Buffer.add_string b "\r\n";
  (match user with
  | Some u ->
      Buffer.add_string b "User: ";
      Buffer.add_string b u;
      Buffer.add_string b "\r\n"
  | None -> ());
  (match class_of verb with
  | Some c ->
      Buffer.add_string b "Message-Class: ";
      Buffer.add_string b (Label.gold_to_string c);
      Buffer.add_string b "\r\n"
  | None -> ());
  if has_body verb then
    Buffer.add_string b
      (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  if has_body verb then Buffer.add_string b body;
  Buffer.contents b

(* --------------------------------------------------------------- *)
(* Parsing                                                          *)

let parse_content_length s =
  let n = String.length s in
  if n = 0 then Error "Content-Length: empty value"
  else
    let rec go i acc =
      if i >= n then Ok acc
      else
        match s.[i] with
        | '0' .. '9' as c ->
            let d = Char.code c - Char.code '0' in
            if acc > (max_int - d) / 10 then
              Error "Content-Length: value overflows"
            else go (i + 1) ((acc * 10) + d)
        | _ -> Error (Printf.sprintf "Content-Length: bad value %S" s)
    in
    go 0 0

let parse_verb = function
  | "PING" -> Some (fun _ -> Ping)
  | "STATS" -> Some (fun _ -> Stats)
  | "PUBLISH" -> Some (fun _ -> Publish)
  | "CLASSIFY" -> Some (fun _ -> Classify)
  | "TRAIN" -> Some (fun c -> Train c)
  | "UNTRAIN" -> Some (fun c -> Untrain c)
  | "HEALTH" -> Some (fun _ -> Health)
  | _ -> None

let parse_verb_line line =
  match String.index_opt line ' ' with
  | None -> Error (Printf.sprintf "malformed request line %S" line)
  | Some sp ->
      let verb = String.sub line 0 sp in
      let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
      if rest <> magic then
        Error (Printf.sprintf "unsupported protocol %S (want %s)" rest magic)
      else (
        match parse_verb verb with
        | None -> Error (Printf.sprintf "unknown verb %S" verb)
        | Some mk -> Ok (verb, mk))

(* A header line "Name: value"; names are matched case-insensitively. *)
let split_header line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "malformed header line %S" line)
  | Some colon ->
      let name = String.lowercase_ascii (String.sub line 0 colon) in
      let value =
        String.trim
          (String.sub line (colon + 1) (String.length line - colon - 1))
      in
      Ok (name, value)

let no_body = { Spamlab_io.buf = ""; off = 0; len = 0 }

let recv_frame ?(max_body = default_max_body) reader =
  match Spamlab_io.read_line reader ~max:max_line with
  | `Eof -> `Eof
  | `Too_long -> `Error "request line too long"
  | `Line line -> (
      match parse_verb_line line with
      | Error e -> `Error e
      | Ok (verb_str, mk) -> (
          let content_length = ref None in
          let msg_class = ref None in
          let user = ref None in
          (* A repeated header is ambiguous outside input, and these
             decide the body length, the class and the tenant: refuse
             it rather than let the last copy win. *)
          let set name field v =
            match !field with
            | Some _ -> Error (Printf.sprintf "duplicate header %S" name)
            | None ->
                field := Some v;
                Ok ()
          in
          let rec headers () =
            match Spamlab_io.read_line reader ~max:max_line with
            | `Eof -> Error "unexpected EOF in request headers"
            | `Too_long -> Error "header line too long"
            | `Line "" -> Ok ()
            | `Line line -> (
                match split_header line with
                | Error e -> Error e
                | Ok (("content-length" as name), v) -> (
                    match parse_content_length v with
                    | Error e -> Error e
                    | Ok n when n > max_body ->
                        Error
                          (Printf.sprintf
                             "Content-Length %d exceeds limit %d" n max_body)
                    | Ok n -> Result.bind (set name content_length n) headers)
                | Ok (("message-class" as name), v) -> (
                    match Label.gold_of_string v with
                    | Error e -> Error e
                    | Ok c -> Result.bind (set name msg_class c) headers)
                | Ok (("user" as name), v) ->
                    (* spamc-style per-user routing.  Empty would mean
                       "the anonymous tenant" ambiguously — reject. *)
                    if v = "" then Error "User: empty value"
                    else Result.bind (set name user v) headers
                | Ok (name, _) ->
                    Error (Printf.sprintf "unknown header %S" name))
          in
          match headers () with
          | Error e -> `Error e
          | Ok () -> (
              let verb =
                match (verb_str, !msg_class) with
                | ("TRAIN" | "UNTRAIN"), None ->
                    Error (verb_str ^ " requires a Message-Class header")
                | _, c -> Ok (mk (Option.value c ~default:Label.Ham))
              in
              match verb with
              | Error e -> `Error e
              | Ok verb -> (
                  match (has_body verb, !content_length) with
                  | true, None ->
                      `Error (verb_str ^ " requires a Content-Length header")
                  | false, Some n when n > 0 ->
                      `Error (verb_str ^ " does not take a body")
                  | false, _ -> `Frame (verb, !user, no_body)
                  | true, Some n -> (
                      match Spamlab_io.read_slice reader n with
                      | Some body -> `Frame (verb, !user, body)
                      | None -> `Error "connection closed mid-body")))))

let recv_request ?max_body reader =
  match recv_frame ?max_body reader with
  | `Frame (verb, user, { Spamlab_io.buf; off; len }) ->
      `Request { verb; body = String.sub buf off len; user }
  | (`Eof | `Error _) as other -> other

(* Declared below the [result]-returning parse helpers: the [Ok]
   constructor would otherwise shadow [Stdlib.Ok] for all of them. *)
type response = Ok of string | Err of string | Busy

let render_response = function
  | Busy -> Printf.sprintf "%s BUSY\r\n" magic
  | Err msg ->
      (* One line; embedded line breaks would fabricate frames. *)
      let msg =
        String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg
      in
      Printf.sprintf "%s ERR %s\r\n" magic msg
  | Ok payload ->
      (* Joined at its exact size: [Printf]'s doubling buffer would put
         a payload of a few KB through a block on the major heap. *)
      String.concat ""
        [
          magic; " OK\r\nContent-Length: "; string_of_int (String.length payload);
          "\r\n\r\n"; payload;
        ]

let recv_response ?(max_body = default_max_body) reader =
  match Spamlab_io.read_line reader ~max:max_line with
  | `Eof -> `Eof
  | `Too_long -> `Error "response line too long"
  | `Line line -> (
      let prefix p s =
        String.length s >= String.length p && String.sub s 0 (String.length p) = p
      in
      if prefix (magic ^ " ERR") line then
        let off = String.length magic + 4 in
        let msg =
          if String.length line > off + 1 then
            String.sub line (off + 1) (String.length line - off - 1)
          else ""
        in
        `Response (Err msg)
      else if line = magic ^ " BUSY" then `Response Busy
      else if line = magic ^ " OK" then (
        match Spamlab_io.read_line reader ~max:max_line with
        | `Eof | `Too_long -> `Error "truncated response headers"
        | `Line line -> (
            match split_header line with
            | Stdlib.Ok ("content-length", v) -> (
                match parse_content_length v with
                | Error e -> `Error e
                | Stdlib.Ok n when n > max_body ->
                    `Error "response body exceeds limit"
                | Stdlib.Ok n -> (
                    match Spamlab_io.read_line reader ~max:max_line with
                    | `Line "" ->
                        let buf = Bytes.create n in
                        if Spamlab_io.read_exact reader buf 0 n then
                          `Response (Ok (Bytes.unsafe_to_string buf))
                        else `Error "connection closed mid-payload"
                    | _ -> `Error "missing blank line after response headers"))
            | _ -> `Error (Printf.sprintf "unexpected response header %S" line)))
      else `Error (Printf.sprintf "malformed response line %S" line))

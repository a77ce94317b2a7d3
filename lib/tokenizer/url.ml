let known_schemes = [ "http"; "https"; "ftp"; "mailto" ]

let scheme_of w =
  match String.index_opt w ':' with
  | Some i
    when i + 2 < String.length w
         && w.[i + 1] = '/'
         && w.[i + 2] = '/'
         && List.mem (String.sub w 0 i) known_schemes ->
      Some (String.sub w 0 i, String.sub w (i + 3) (String.length w - i - 3))
  | _ -> None

let looks_like_url w =
  let w = String.lowercase_ascii w in
  Option.is_some (scheme_of w)
  || (String.length w > 4 && String.sub w 0 4 = "www.")

(* Slice form of [looks_like_url] for the zero-copy span path.  The
   span word iterator only hands out canonical (already lowercased)
   slices, so no case folding is needed here.  Called on every body
   word, so it allocates nothing: loops and top-level recursion only
   (a local [let rec] would allocate a closure per call). *)
let eq_at s off lit =
  let n = String.length lit in
  let i = ref 0 in
  while !i < n && s.[off + !i] = lit.[!i] do
    incr i
  done;
  !i = n

let rec known_scheme_at s off len = function
  | [] -> false
  | sch :: rest ->
      (String.length sch = len && eq_at s off sch)
      || known_scheme_at s off len rest

let looks_like_url_sub s off len =
  (* Mirror [scheme_of]: first ':' followed by "//" and a known
     scheme before it. *)
  let i = ref 0 in
  while !i < len && s.[off + !i] <> ':' do
    incr i
  done;
  let i = !i in
  (i + 2 < len
  && s.[off + i + 1] = '/'
  && s.[off + i + 2] = '/'
  && known_scheme_at s off i known_schemes)
  || (len > 4 && eq_at s off "www.")

let split_on_chars chars s =
  let is_sep c = List.mem c chars in
  let n = String.length s in
  let rec scan i start acc =
    if i >= n then
      if i > start then String.sub s start (i - start) :: acc else acc
    else if is_sep s.[i] then
      let acc =
        if i > start then String.sub s start (i - start) :: acc else acc
      in
      scan (i + 1) (i + 1) acc
    else scan (i + 1) start acc
  in
  List.rev (scan 0 0 [])

let crack w =
  let w = String.lowercase_ascii w in
  let proto, rest =
    match scheme_of w with
    | Some (scheme, rest) -> (Some scheme, rest)
    | None ->
        if String.length w > 4 && String.sub w 0 4 = "www." then
          (Some "http", w)
        else (None, w)
  in
  match proto with
  | None -> []
  | Some scheme ->
      let host, path =
        match String.index_opt rest '/' with
        | None -> (rest, "")
        | Some i ->
            (String.sub rest 0 i,
             String.sub rest (i + 1) (String.length rest - i - 1))
      in
      (* Strip a port and userinfo from the host. *)
      let host =
        match String.rindex_opt host '@' with
        | Some i -> String.sub host (i + 1) (String.length host - i - 1)
        | None -> host
      in
      let host =
        match String.index_opt host ':' with
        | Some i -> String.sub host 0 i
        | None -> host
      in
      let host_tokens =
        split_on_chars [ '.' ] host |> List.map (fun h -> "url:" ^ h)
      in
      let path_tokens =
        split_on_chars [ '/'; '?'; '&'; '='; '.'; '-'; '_'; '#' ] path
        |> List.filter (fun p -> String.length p >= 3)
        |> List.map (fun p -> "url:" ^ p)
      in
      (("proto:" ^ scheme) :: host_tokens) @ path_tokens

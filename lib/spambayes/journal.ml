module Io = Spamlab_io

type kind = [ `Train | `Untrain ]
type 'tok op = { kind : kind; label : Label.gold; k : int; tokens : 'tok array }

let compact_ratio = 4.0
let crc_of s = Token_db.crc_finish (Token_db.crc_feed Token_db.crc_init s)

let of_ids kind label ids =
  let order = Intern.byte_order ids (Array.length ids) in
  {
    kind;
    label;
    k = 1;
    tokens = Array.map (fun pos -> Array.unsafe_get ids pos) order;
  }

let intern op = { op with tokens = Intern.intern_array op.tokens }

let apply db op =
  match op.kind with
  | `Train -> Token_db.train_many_ids db op.label op.tokens op.k
  | `Untrain -> Token_db.untrain_ids db op.label op.tokens

(* A dictionary-attack record runs to hundreds of KB, so it is written
   once, in place, and its CRC is taken where it lies. *)
let add_record b ~user op =
  let start = Buffer.length b in
  Buffer.add_string b (match op.kind with `Train -> "T" | `Untrain -> "U");
  Buffer.add_char b '\t';
  Token_db.add_escaped b user;
  Buffer.add_char b '\t';
  Buffer.add_char b (match op.label with Label.Spam -> 's' | Label.Ham -> 'h');
  (match op.kind with
  | `Train ->
      Buffer.add_char b '\t';
      Buffer.add_string b (string_of_int op.k)
  | `Untrain -> ());
  Array.iter
    (fun id ->
      Buffer.add_char b '\t';
      Token_db.add_escaped b (Intern.to_string id))
    op.tokens;
  Buffer.add_char b '\t';
  let crc =
    Token_db.crc_finish (Token_db.crc_feed_buffer ~pos:start Token_db.crc_init b)
  in
  Printf.bprintf b "crc=%08x\n" crc

let commit_line = Printf.sprintf "C\tcrc=%08x\n" (crc_of "C\t")

let parse_label = function
  | "s" -> Some Label.Spam
  | "h" -> Some Label.Ham
  | _ -> None

(* [String.split_on_char '\t' (String.sub s off (stop - off))],
   without the copy. *)
let fields s off stop =
  let acc = ref [] and j = ref stop in
  for i = stop - 1 downto off do
    if String.unsafe_get s i = '\t' then begin
      acc := String.sub s (i + 1) (!j - i - 1) :: !acc;
      j := i
    end
  done;
  String.sub s off (!j - off) :: !acc

(* A CRC field is exactly the [%08x] text of its value: eight
   lower-case hex digits at [s.[off]].  [-1] for any other spelling —
   an upper-case digit, a sign, a [_] — which [int_of_string] reads as
   a number too. *)
let crc_field s off =
  let rec go i acc =
    if i = 8 then acc
    else
      match String.unsafe_get s (off + i) with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go 0 0

(* A dictionary-attack record runs to hundreds of KB: it is checksummed
   and split where it lies. *)
let parse_sub data off n =
  if off < 0 || n < 0 || off + n > String.length data then
    invalid_arg "Journal.parse_sub";
  (* ...\tcrc=XXXXXXXX — 13 tail bytes including the tab. *)
  if
    n < 14
    || data.[off + n - 13] <> '\t'
    || String.sub data (off + n - 12) 4 <> "crc="
  then `Bad "missing crc field"
  else if
    crc_field data (off + n - 8)
    <> Token_db.crc_finish
         (Token_db.crc_feed_sub Token_db.crc_init data off (n - 12))
  then `Bad "crc mismatch"
  else
    let unescape s =
      match Token_db.unescape_token s with
      | Ok s -> s
      | Error e -> raise (Sys_error e)
    in
    let op kind user label k toks =
      `Op
        ( unescape user,
          { kind; label; k; tokens = Array.map unescape (Array.of_list toks) }
        )
    in
    let parse () =
      match fields data off (off + n - 13) with
      | [ "C" ] -> `Commit
      | "T" :: user :: cls :: k :: toks -> (
          match (parse_label cls, int_of_string_opt k) with
          | Some label, Some k when k >= 0 -> op `Train user label k toks
          | _ -> `Bad "bad train record")
      | "U" :: user :: cls :: toks -> (
          match parse_label cls with
          | Some label -> op `Untrain user label 1 toks
          | None -> `Bad "bad untrain record")
      | _ -> `Bad "unknown record"
    in
    (match parse () with r -> r | exception Sys_error e -> `Bad e)

let parse_line line = parse_sub line 0 (String.length line)

(* ------------------------------------------------------------------ *)
(* Reading. *)

let next_line data pos =
  if pos >= String.length data then None
  else
    match String.index_from_opt data pos '\n' with
    | None -> None (* torn final line *)
    | Some nl -> Some (String.sub data pos (nl - pos), nl + 1)

let header ~ident ~crc = Printf.sprintf "%s=%08x\n" ident crc

let parse_header ~ident line =
  let n = String.length ident in
  let magic =
    match String.index_opt ident ' ' with
    | Some i -> String.sub ident 0 i
    | None -> ident
  in
  if String.length line = n + 9 && String.starts_with ~prefix:(ident ^ "=") line
  then
    match crc_field line (n + 1) with
    | -1 -> Error "bad crc in journal header"
    | crc -> Ok crc
  else if String.starts_with ~prefix:(magic ^ " ") line then
    Error
      (Printf.sprintf "header %S does not match this file (expected %s=...)"
         line ident)
  else Error ("not a " ^ magic ^ " file")

type scan = {
  header_len : int;
  last_commit : int;
  committed : int;
  uncommitted : int;
  torn : bool;
}

let scan ~ident ~base_crc ?(on_op = fun _ ~off:_ ~len:_ -> ()) data =
  match next_line data 0 with
  | None -> `Headless
  | Some (hdr, p0) -> (
      match parse_header ~ident hdr with
      | Error e -> `Corrupt e
      | Ok crc when Option.fold ~none:false ~some:(( <> ) crc) base_crc -> `Stale
      | Ok _ ->
          (* Ops since the last commit marker, newest first: they reach
             [on_op] only once a marker commits them. *)
          let since = ref [] and committed = ref 0 in
          let pos = ref p0 and last_commit = ref p0 in
          let torn = ref false and continue = ref true in
          while !continue do
            match String.index_from_opt data !pos '\n' with
            | None ->
                torn := !pos < String.length data;
                continue := false
            | Some nl -> (
                let nxt = nl + 1 in
                match parse_sub data !pos (nl - !pos) with
                | `Commit ->
                    List.iter
                      (fun (user, off, len) -> on_op user ~off ~len)
                      (List.rev !since);
                    committed := !committed + List.length !since;
                    since := [];
                    last_commit := nxt;
                    pos := nxt
                | `Op (user, _) ->
                    since := (user, !pos, nl - !pos) :: !since;
                    pos := nxt
                | `Bad _ ->
                    torn := true;
                    continue := false)
          done;
          `Scanned
            {
              header_len = p0;
              last_commit = !last_commit;
              committed = !committed;
              uncommitted = List.length !since;
              torn = !torn;
            })

let verify ~ident ~base_crc data =
  match scan ~ident ~base_crc data with
  | `Headless -> `Corrupt "truncated journal header"
  | `Corrupt e -> `Corrupt e
  | `Stale -> `Stale
  | `Scanned s ->
      if s.torn || s.uncommitted > 0 then `Torn (s.committed, s.uncommitted)
      else `Ok s.committed

(* ------------------------------------------------------------------ *)
(* Writing. *)

type t = {
  path : string;
  ident : string;
  buf : Buffer.t; (* records not yet written *)
  mutable fd : Unix.file_descr option; (* None: no file yet *)
  mutable base_crc : int; (* CRC of the file the ops apply over *)
  mutable header_crc : int option; (* stamped in the file's header *)
  mutable len : int; (* bytes in the file *)
  mutable hdr : int; (* header length *)
  mutable last_commit : int; (* offset just past the last marker *)
}

let reset t ~base_crc =
  let h = header ~ident:t.ident ~crc:base_crc in
  Io.atomic_write t.path (fun oc -> output_string oc h);
  Option.iter Unix.close t.fd;
  t.fd <- Some (Unix.openfile t.path [ O_RDWR ] 0o644);
  t.base_crc <- base_crc;
  t.header_crc <- Some base_crc;
  t.hdr <- String.length h;
  t.len <- t.hdr;
  t.last_commit <- t.hdr

let rebase t ~base_crc = t.base_crc <- base_crc

let open_ ~create ~ident ~base_crc path =
  let t =
    {
      path;
      ident;
      buf = Buffer.create 1024;
      fd = None;
      base_crc;
      header_crc = None;
      len = 0;
      hdr = 0;
      last_commit = 0;
    }
  in
  match Io.read_file path with
  | Error _ ->
      if create then reset t ~base_crc;
      Ok (t, [])
  | Ok data -> (
      let ops = ref [] in
      match
        scan ~ident ~base_crc:(Some base_crc)
          ~on_op:(fun user ~off ~len -> ops := (user, off, len) :: !ops)
          data
      with
      | `Corrupt e -> Error e
      | `Headless | `Stale ->
          reset t ~base_crc;
          Ok (t, [])
      | `Scanned s ->
          (* The uncommitted suffix was never acknowledged to a client,
             whose replay contract re-delivers it. *)
          if String.length data > s.last_commit then Unix.truncate path s.last_commit;
          t.fd <- Some (Unix.openfile path [ O_RDWR ] 0o644);
          t.header_crc <- Some base_crc;
          t.hdr <- s.header_len;
          t.len <- s.last_commit;
          t.last_commit <- s.last_commit;
          Ok (t, List.rev !ops))

let append t ~user op =
  let blen = Buffer.length t.buf in
  add_record t.buf ~user op;
  (t.len + blen, Buffer.length t.buf - blen)

let unappend t ~off = Buffer.truncate t.buf (off - t.len)
let buffered t = Buffer.length t.buf
let payload t = t.len + Buffer.length t.buf - t.hdr
let has_committed t = t.last_commit > t.hdr

(* The one chunk each domain writes records through: a write copies the
   buffer out a chunk at a time instead of whole, and a failed commit
   needs no copy to roll back, since the buffer is cleared only once
   the records are durable. *)
let chunk_key = Domain.DLS.new_key (fun () -> Bytes.create 65_536)

(* The buffered records, written at [len], not at the end of the file,
   so a retried write overwrites what a failed one left behind.  Leaves
   [len] and the buffer as they were. *)
let write_buffered t =
  if t.header_crc <> Some t.base_crc then reset t ~base_crc:t.base_crc;
  let fd = Option.get t.fd and chunk = Domain.DLS.get chunk_key in
  ignore (Unix.lseek fd t.len SEEK_SET);
  let n = Buffer.length t.buf and pos = ref 0 in
  while !pos < n do
    let len = min (Bytes.length chunk) (n - !pos) in
    Buffer.blit t.buf !pos chunk 0 len;
    Io.really_write_string ~site:"journal.write" fd
      (Bytes.unsafe_to_string chunk) 0 len;
    pos := !pos + len
  done

let written t =
  t.len <- t.len + Buffer.length t.buf;
  Buffer.clear t.buf

let flush t =
  if Buffer.length t.buf > 0 then begin
    write_buffered t;
    written t
  end

(* On failure the commit marker leaves the buffer, and the file is cut
   back to [len], so the records stay buffered once and a retry writes
   the bytes an uninterrupted commit would have. *)
let commit t =
  if t.len + Buffer.length t.buf > t.last_commit then begin
    let records = Buffer.length t.buf in
    Buffer.add_string t.buf commit_line;
    match
      write_buffered t;
      Spamlab_fault.check "journal.fsync";
      Unix.fsync (Option.get t.fd)
    with
    | () ->
        written t;
        t.last_commit <- t.len
    | exception e ->
        (try Option.iter (fun fd -> Unix.ftruncate fd t.len) t.fd
         with Unix.Unix_error _ -> ());
        Buffer.truncate t.buf records;
        raise e
  end

let read t ~off ~len =
  let fd = Option.get t.fd in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd off SEEK_SET);
  Io.really_read fd buf 0 len;
  Bytes.unsafe_to_string buf

let close t =
  Option.iter Unix.close t.fd;
  t.fd <- None;
  Buffer.clear t.buf

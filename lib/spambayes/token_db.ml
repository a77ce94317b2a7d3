module Obs = Spamlab_obs.Obs

let db_copies = Obs.counter "spambayes.db_copies"
let db_copy_delta_entries = Obs.counter "spambayes.db_copy_delta_entries"

(* Counts live in flat open-addressing tables keyed by interned token
   id, sized by the tokens a db holds: the intern table is
   process-global and only grows, so a structure dense over ids would
   charge a 20-message throwaway filter for every id interned before it.

   Slot [i] is the three ints [tbl.(3i)] (the id, or [empty]),
   [tbl.(3i+1)] (spam count) and [tbl.(3i+2)] (ham count): a probe and
   the counts it finds share a cache line, the GC has no pointer to
   trace, and copying a table is one array blit.  The capacity is a
   power of two and doubles before the load passes 3/4, so an entry
   costs 4 to 8 words.  Entries are never removed.

   A db reads two tables: [ov], its own, which takes every write and
   holds the {e absolute} counts of the ids written to it, then [base],
   immutable and possibly shared.
   Invariants:
   - no [base] slot is ever written, nor an [ov] slot while [lent];
   - [ov_mask < 0] exactly when [ov] is [[||]], and then [ov_size = 0];
     likewise [base_mask] and [base];
   - [lent] implies [base_mask < 0 <= ov_mask];
   - [distinct] counts ids whose combined count is non-zero, maintained
     on every 0-to-positive / positive-to-0 transition. *)
type t = {
  mutable base : int array;  (* [||] until a write promotes a lent [ov] *)
  mutable base_mask : int;  (* slot count - 1, or -1 *)
  mutable ov : int array;  (* [||] until the first write *)
  mutable ov_mask : int;
  mutable ov_size : int;  (* occupied slots *)
  mutable lent : bool;  (* [ov] is also a copy's base *)
  mutable nspam : int;
  mutable nham : int;
  mutable distinct : int;
  (* Bumped once per mutating call.  Probability caches (Prob_cache)
     stamp each cached float with the generation it was computed under;
     validity is one int compare.  Starts at 1 so a stamp of 0 can mean
     "never filled".  Wholesale invalidation is semantically forced:
     every mutation changes nspam/nham (train/untrain) or may follow
     one ([set_counts_id]), and the smoothing formula reads the
     global totals, so one changed count shifts every token's
     probability. *)
  mutable generation : int;
}

let create () =
  {
    base = [||];
    base_mask = -1;
    ov = [||];
    ov_mask = -1;
    ov_size = 0;
    lent = false;
    nspam = 0;
    nham = 0;
    distinct = 0;
    generation = 1;
  }

(* A db without a base lends the copy its own table as the copy's base,
   in O(1), and is marked [lent]: the table is then immutable, and the
   source's next write first promotes it to its own base ([reclaim]).
   The mark is all a copy writes to its source, and racing copies write
   the same [true], so any number of domains may copy one db at once.
   A db with a base shares it and blits its own table.  The tables hold
   plain ints, so no cell of one side can be reached from the other. *)
let copy t =
  Obs.incr db_copies;
  if t.base_mask >= 0 then begin
    Obs.add db_copy_delta_entries t.ov_size;
    { t with ov = Array.copy t.ov }
  end
  else begin
    if t.ov_mask >= 0 then t.lent <- true;
    { t with base = t.ov; base_mask = t.ov_mask; ov = [||]; ov_mask = -1;
             ov_size = 0; lent = false }
  end

let reclaim t =
  t.base <- t.ov;
  t.base_mask <- t.ov_mask;
  t.ov <- [||];
  t.ov_mask <- -1;
  t.ov_size <- 0;
  t.lent <- false

let generation t = t.generation
let[@inline] touch t = t.generation <- t.generation + 1

let nspam t = t.nspam
let nham t = t.nham
let distinct_tokens t = t.distinct

(* ------------------------------------------------------------------ *)
(* Id tables. *)

let empty = -1

(* Double hashing from an identity home: [id] starts at slot
   [id land mask] and steps by an odd stride drawn from its high bits,
   so a db whose ids are dense sits in its table like an array, in id
   order, and ids that share a home part ways at once. *)
let[@inline] step id = ((id * 0x9e3779b97f4a7c1) lsr 32) lor 1

(* A top-level loop rather than a local [let rec] over the table: the
   build has no flambda, so a local recursive function that captures
   the table allocates its closure on every call. *)
let rec probe_from tbl stride mask id d i =
  let k = Array.unsafe_get tbl (stride * i) in
  if k = id || k = empty then i
  else probe_from tbl stride mask id d ((i + d) land mask)

let[@inline] find_slot tbl ~stride ~mask id =
  probe_from tbl stride mask id (step id) (id land mask)

(* The slot of [id] in a count table, or -1 when it holds none.  Most
   ids sit at their home slot, which is tested before the probe. *)
let[@inline] lookup tbl mask id =
  if mask < 0 then -1
  else
    let i = id land mask in
    let k = Array.unsafe_get tbl (3 * i) in
    if k = id then i
    else if k = empty then -1
    else
      let i = find_slot tbl ~stride:3 ~mask id in
      if Array.unsafe_get tbl (3 * i) = id then i else -1

(* Where [id]'s counts are: [3i + 1] for slot [i] of [ov], [-(3i + 1)]
   for slot [i] of [base], 0 for neither. *)
let[@inline] slot t id =
  let i = lookup t.ov t.ov_mask id in
  if i >= 0 then (3 * i) + 1
  else
    let j = lookup t.base t.base_mask id in
    if j >= 0 then -((3 * j) + 1) else 0

let[@inline] slot_spam t s =
  if s > 0 then Array.unsafe_get t.ov s
  else if s < 0 then Array.unsafe_get t.base (-s)
  else 0

let[@inline] slot_ham t s =
  if s > 0 then Array.unsafe_get t.ov (s + 1)
  else if s < 0 then Array.unsafe_get t.base (1 - s)
  else 0

let spam_count_id t id = slot_spam t (slot t id)
let ham_count_id t id = slot_ham t (slot t id)

(* String lookups go through [Intern.find], which never interns:
   querying an arbitrary string must not grow the global table. *)
let spam_count t token =
  match Intern.find token with None -> 0 | Some id -> spam_count_id t id

let ham_count t token =
  match Intern.find token with None -> 0 | Some id -> ham_count_id t id

(* Rebuild [ov] with [slots] slots (a power of two, room for every
   entry). *)
let resize t slots =
  let old = t.ov and mask = slots - 1 in
  let ov = Array.make (3 * slots) empty in
  for j = 0 to (Array.length old / 3) - 1 do
    let id = Array.unsafe_get old (3 * j) in
    if id <> empty then
      Array.blit old (3 * j) ov (3 * find_slot ov ~stride:3 ~mask id) 3
  done;
  t.ov <- ov;
  t.ov_mask <- mask

(* Size an empty [ov] for [n] entries, so a load fills it without
   regrowing. *)
let reserve t n =
  if t.ov_size = 0 then begin
    let slots = ref 16 in
    while 3 * !slots < 4 * n do
      slots := 2 * !slots
    done;
    resize t !slots
  end

(* The [ov] slot for [id], claimed on first touch with the counts
   [base] holds for it. *)
let write_slot t id =
  if t.lent then reclaim t;
  let i = lookup t.ov t.ov_mask id in
  if i >= 0 then i
  else begin
    if 4 * (t.ov_size + 1) > 3 * (t.ov_mask + 1) then
      resize t (max 16 (2 * (t.ov_mask + 1)));
    let i = find_slot t.ov ~stride:3 ~mask:t.ov_mask id in
    let b = lookup t.base t.base_mask id in
    let ov = t.ov in
    Array.unsafe_set ov (3 * i) id;
    Array.unsafe_set ov ((3 * i) + 1)
      (if b < 0 then 0 else Array.unsafe_get t.base ((3 * b) + 1));
    Array.unsafe_set ov ((3 * i) + 2)
      (if b < 0 then 0 else Array.unsafe_get t.base ((3 * b) + 2));
    t.ov_size <- t.ov_size + 1;
    i
  end

(* Track [distinct] across a combined count going [was] -> [now]. *)
let[@inline] note_transition t ~was ~now =
  if was = 0 && now > 0 then t.distinct <- t.distinct + 1
  else if was > 0 && now = 0 then t.distinct <- t.distinct - 1

(* Add [k] (possibly negative) to one class count of [id]. *)
let bump t label id k =
  let s = (3 * write_slot t id) + 1 in
  let ov = t.ov in
  let was = Array.unsafe_get ov s + Array.unsafe_get ov (s + 1) in
  let c = match label with Label.Spam -> s | Label.Ham -> s + 1 in
  Array.unsafe_set ov c (Array.unsafe_get ov c + k);
  note_transition t ~was ~now:(was + k)

let bump_all t label ids k =
  for i = 0 to Array.length ids - 1 do
    bump t label (Array.unsafe_get ids i) k
  done

let train_ids t label ids =
  touch t;
  (match label with
  | Label.Spam -> t.nspam <- t.nspam + 1
  | Label.Ham -> t.nham <- t.nham + 1);
  bump_all t label ids 1

let train t label tokens = train_ids t label (Intern.intern_array tokens)

let train_many_ids t label ids k =
  if k < 0 then invalid_arg "Token_db.train_many: negative count";
  if k > 0 then begin
    touch t;
    (match label with
    | Label.Spam -> t.nspam <- t.nspam + k
    | Label.Ham -> t.nham <- t.nham + k);
    bump_all t label ids k
  end

let train_many t label tokens k =
  train_many_ids t label (Intern.intern_array tokens) k

let untrain_ids t label ids =
  let global_ok =
    match label with Label.Spam -> t.nspam > 0 | Label.Ham -> t.nham > 0
  in
  if not global_ok then
    invalid_arg "Token_db.untrain: no trained message of that class";
  (* Validate before mutating so a failed untrain leaves the DB intact.
     The check is occurrence-aware: an id appearing m times in [ids]
     needs a count of at least m — checking mere presence per distinct
     id would let the decrement loop drive a duplicated token negative
     (and previously raised Not_found mid-loop, after mutation).  The
     error names the byte-least short token, so it does not depend on
     the order of [ids] (id order follows interning order). *)
  let mult = Hashtbl.create (Array.length ids) in
  Array.iter
    (fun id ->
      Hashtbl.replace mult id
        (1 + Option.value ~default:0 (Hashtbl.find_opt mult id)))
    ids;
  let short = ref None in
  Hashtbl.iter
    (fun id m ->
      let have =
        match label with
        | Label.Spam -> spam_count_id t id
        | Label.Ham -> ham_count_id t id
      in
      if have < m then
        let tok = Intern.to_string id in
        match !short with
        | Some s when String.compare s tok <= 0 -> ()
        | _ -> short := Some tok)
    mult;
  Option.iter
    (fun tok ->
      invalid_arg
        (Printf.sprintf "Token_db.untrain: token %S was never trained" tok))
    !short;
  touch t;
  (match label with
  | Label.Spam -> t.nspam <- t.nspam - 1
  | Label.Ham -> t.nham <- t.nham - 1);
  bump_all t label ids (-1)

let untrain t label tokens = untrain_ids t label (Intern.intern_array tokens)

let iter_table f tbl mask =
  for i = 0 to mask do
    let id = Array.unsafe_get tbl (3 * i) in
    if id <> empty then
      f id
        ~spam:(Array.unsafe_get tbl ((3 * i) + 1))
        ~ham:(Array.unsafe_get tbl ((3 * i) + 2))
  done

let iter_overlay f t = iter_table f t.ov t.ov_mask

(* Every id with a non-zero combined count, with its counts, in one
   pass over each table: [ov] first, then the [base] slots [ov] does
   not override.  Skipping combined-zero entries keeps the observable
   contents those of the old hashtable representation (which removed
   emptied tokens).  Order is unspecified; every caller sorts (save,
   good-word ranking) or folds commutatively. *)
let iter_counts f t =
  iter_overlay
    (fun id ~spam ~ham -> if spam <> 0 || ham <> 0 then f id ~spam ~ham)
    t;
  iter_table
    (fun id ~spam ~ham ->
      if (spam <> 0 || ham <> 0) && lookup t.ov t.ov_mask id < 0 then
        f id ~spam ~ham)
    t.base t.base_mask

let fold f init t =
  let acc = ref init in
  iter_counts
    (fun id ~spam ~ham -> acc := f !acc (Intern.to_string id) ~spam ~ham)
    t;
  !acc

(* Tokens come straight from attacker-controlled email bodies, so they
   can contain the format's own delimiters.  Version 2 escapes exactly
   the characters the line format gives meaning to: backslash, tab,
   newline, carriage return.  Unescaped runs are copied whole. *)
let add_escaped b s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('\\' | '\t' | '\n' | '\r') as c ->
        Buffer.add_substring b s !start (i - !start);
        Buffer.add_char b '\\';
        Buffer.add_char b
          (match c with '\t' -> 't' | '\n' -> 'n' | '\r' -> 'r' | c -> c);
        start := i + 1
    | _ -> ()
  done;
  Buffer.add_substring b s !start (String.length s - !start)

(* [Printf "%d"] without the format interpreter or a temporary string. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* The one row writer behind the v3 db and the store segments: collect
   ids and counts in the caller's single pass, order the ids by
   [Intern.byte_order] (int keys for rank-covered ids), write each row
   as [escaped token \t spam \t ham \n].  Rendering is the bulk of a
   publish, so the scratch arrays are sized once from [capacity]
   instead of doubling their way there, and [head] lets a caller put a
   row-counting line in front without a second buffer. *)
let render_rows ?(head = ignore) b ~capacity iter =
  let cap = max 16 capacity in
  let ids = ref (Array.make cap 0) and counts = ref (Array.make (2 * cap) 0) in
  let n = ref 0 in
  iter (fun id ~spam ~ham ->
      if !n = Array.length !ids then begin
        let grow a =
          let bigger = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        ids := grow !ids;
        counts := grow !counts
      end;
      Array.unsafe_set !ids !n id;
      Array.unsafe_set !counts (2 * !n) spam;
      Array.unsafe_set !counts ((2 * !n) + 1) ham;
      incr n);
  let ids = !ids and counts = !counts and n = !n in
  let order = Intern.byte_order ids n in
  head n;
  Array.iter
    (fun pos ->
      add_escaped b (Intern.to_string (Array.unsafe_get ids pos));
      Buffer.add_char b '\t';
      add_int b (Array.unsafe_get counts (2 * pos));
      Buffer.add_char b '\t';
      add_int b (Array.unsafe_get counts ((2 * pos) + 1));
      Buffer.add_char b '\n')
    order;
  n

let unescape_token s =
  if not (String.contains s '\\') then Ok s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec loop i =
      if i >= n then Ok (Buffer.contents buf)
      else
        match s.[i] with
        | '\\' ->
            if i + 1 >= n then Error "dangling backslash in token"
            else (
              match s.[i + 1] with
              | '\\' ->
                  Buffer.add_char buf '\\';
                  loop (i + 2)
              | 't' ->
                  Buffer.add_char buf '\t';
                  loop (i + 2)
              | 'n' ->
                  Buffer.add_char buf '\n';
                  loop (i + 2)
              | 'r' ->
                  Buffer.add_char buf '\r';
                  loop (i + 2)
              | c -> Error (Printf.sprintf "bad escape \\%c in token" c))
        | c ->
            Buffer.add_char buf c;
            loop (i + 1)
    in
    loop 0
  end

(* Zeroing an id the db holds nowhere is a no-op: absent and 0/0 are
   the same observable state, so it claims no slot. *)
let set_counts_id t id ~spam ~ham =
  if spam < 0 || ham < 0 then
    invalid_arg "Token_db.set_counts_id: negative count";
  touch t;
  if spam <> 0 || ham <> 0 || slot t id <> 0 then begin
    let s = (3 * write_slot t id) + 1 in
    let ov = t.ov in
    let was = Array.unsafe_get ov s + Array.unsafe_get ov (s + 1) in
    Array.unsafe_set ov s spam;
    Array.unsafe_set ov (s + 1) ham;
    note_transition t ~was ~now:(spam + ham)
  end

(* One loaded row.  A row with both counts zero is accepted but not
   retained, and its token is not interned. *)
let load_row t token ~spam ~ham =
  if spam <> 0 || ham <> 0 then set_counts_id t (Intern.id token) ~spam ~ham

let set_message_counts t ~nspam ~nham =
  if nspam < 0 || nham < 0 then
    invalid_arg "Token_db.set_message_counts: negative count";
  touch t;
  t.nspam <- nspam;
  t.nham <- nham

let overlay_size t = t.ov_size
let overlay_mem t id = lookup t.ov t.ov_mask id >= 0

(* CRC-32 (IEEE 802.3, polynomial 0xedb88320), table-driven.  The v3
   footer checksums the header and every entry line, so a truncated or
   bit-flipped save is detected instead of loaded as a silently wrong
   database.  The table is built eagerly: saves can in principle happen
   off the main domain, and [Lazy.force] is not domain-safe. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_init = 0xffffffff
let crc_finish reg = reg lxor 0xffffffff

let crc_feed reg s =
  let reg = ref reg in
  for i = 0 to String.length s - 1 do
    reg :=
      Array.unsafe_get crc_table
        ((!reg lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!reg lsr 8)
  done;
  !reg

(* 1 KiB slices: each is a short-lived minor-heap string, so a
   multi-MB rendering is never copied out whole just to be summed. *)
let crc_feed_buffer ?(pos = 0) reg b =
  let rec go reg pos =
    if pos >= Buffer.length b then reg
    else
      let len = min 1024 (Buffer.length b - pos) in
      go (crc_feed reg (Buffer.sub b pos len)) (pos + len)
  in
  go reg pos

let footer_prefix = "#spamlab-db-footer "

(* Rows in token byte order make the format canonical and diffable —
   and independent of id assignment order, so saves are byte-identical
   across runs and jobs settings. *)
let to_string t =
  let buf = Buffer.create (4096 + (24 * t.distinct)) in
  Buffer.add_string buf
    (Printf.sprintf "spamlab-token-db 3 %d %d\n" t.nspam t.nham);
  let entries =
    render_rows buf ~capacity:t.distinct (fun emit -> iter_counts emit t)
  in
  let crc = crc_finish (crc_feed_buffer crc_init buf) in
  Buffer.add_string buf
    (Printf.sprintf "%scrc32=%08x entries=%d\n" footer_prefix crc entries);
  Buffer.contents buf

let save oc t = output_string oc (to_string t)

type verify_report = {
  version : int;
  nspam : int;
  nham : int;
  entries : int;
  checksum : [ `Ok | `Absent ];
}

type salvage = {
  db : t;
  version : int;
  kept : int;
  dropped : int;
  checksum_ok : bool option;
}

let parse_header line =
  match String.split_on_char ' ' line with
  | [ "spamlab-token-db"; version; nspam; nham ] -> (
      match int_of_string_opt version with
      | Some ((1 | 2 | 3) as v) -> (
          match (int_of_string_opt nspam, int_of_string_opt nham) with
          | Some nspam, Some nham when nspam >= 0 && nham >= 0 ->
              Ok (v, nspam, nham)
          | _ -> Error "bad message counts in header")
      | Some v -> Error (Printf.sprintf "unsupported token-db version %d" v)
      | None -> Error "not a spamlab token-db file")
  | _ -> Error "not a spamlab token-db file"

let parse_footer line =
  Scanf.sscanf_opt line "#spamlab-db-footer crc32=%x entries=%d%!"
    (fun crc entries -> (crc, entries))

(* One entry line, validated against the header totals.  Shared by the
   strict and salvage parsers. *)
let parse_entry ~version ~nspam ~nham line =
  let ( let* ) r f = Result.bind r f in
  match String.split_on_char '\t' line with
  | [ raw; spam; ham ] -> (
      (* Version 1 wrote tokens verbatim (and could not contain the
         delimiters it would have corrupted on), so its tokens must not
         be unescaped. *)
      let* token = if version = 1 then Ok raw else unescape_token raw in
      match (int_of_string_opt spam, int_of_string_opt ham) with
      | Some spam, Some ham ->
          if spam < 0 || ham < 0 then
            Error (Printf.sprintf "negative count on line %S" line)
          else if spam > nspam || ham > nham then
            Error
              (Printf.sprintf "count exceeds header message totals on line %S"
                 line)
          else Ok (token, spam, ham)
      | _ -> Error (Printf.sprintf "bad counts on line %S" line))
  | _ -> Error (Printf.sprintf "bad line %S" line)

let parse_strict s =
  let ( let* ) r f = Result.bind r f in
  if String.trim s = "" then Error "empty token-db file"
  else
    let header, rest =
      match String.split_on_char '\n' s with
      | header :: rest -> (header, rest)
      | [] -> assert false
    in
    let* version, nspam, nham = parse_header header in
    let t = create () in
    t.nspam <- nspam;
    t.nham <- nham;
    reserve t (List.length rest);
    let seen = Hashtbl.create 4096 in
    let crc = ref (crc_feed crc_init (header ^ "\n")) in
    let entries = ref 0 in
    let footer = ref None in
    let finish () =
      match !footer with
      | None ->
          if version >= 3 then
            Error "truncated file: missing checksum footer"
          else
            Ok { version; nspam; nham; entries = !entries; checksum = `Absent }
      | Some (fcrc, fentries) ->
          if fentries <> !entries then
            Error
              (Printf.sprintf
                 "entry count mismatch: footer says %d, file has %d" fentries
                 !entries)
          else if fcrc <> crc_finish !crc then
            Error "checksum mismatch: file is corrupted or truncated"
          else Ok { version; nspam; nham; entries = !entries; checksum = `Ok }
    in
    let rec loop = function
      | [] -> finish ()
      | line :: rest when !footer <> None ->
          if line = "" then loop rest
          else Error "content after checksum footer"
      | line :: rest when String.starts_with ~prefix:footer_prefix line -> (
          match parse_footer line with
          | Some f ->
              footer := Some f;
              loop rest
          | None -> Error (Printf.sprintf "bad footer line %S" line))
      | "" :: rest ->
          (* v1/v2 tolerated blank lines; under a checksum they count as
             bytes, and [to_string] never writes one, so a v3 file with
             a blank line fails the CRC comparison at the footer. *)
          crc := crc_feed !crc "\n";
          loop rest
      | line :: rest ->
          crc := crc_feed !crc (line ^ "\n");
          let* token, spam, ham = parse_entry ~version ~nspam ~nham line in
          if Hashtbl.mem seen token then
            Error (Printf.sprintf "duplicate token %S" token)
          else begin
            Hashtbl.replace seen token ();
            load_row t token ~spam ~ham;
            incr entries;
            loop rest
          end
    in
    (* The final "" produced by a trailing newline is consumed by the
       blank-line cases; it only feeds the CRC before the footer, where
       a genuine v3 file never has it. *)
    let rest =
      match List.rev rest with "" :: r -> List.rev r | _ -> rest
    in
    Result.map (fun report -> (t, report)) (loop rest)

(* The "never raises" guarantee: anything the parser throws (it should
   not, but corrupt input earns paranoia) becomes [Error] — except
   resource exhaustion, which must propagate. *)
let guard f =
  match f () with
  | r -> r
  | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
  | exception exn -> Error ("token-db parse error: " ^ Printexc.to_string exn)

let of_string s = guard (fun () -> Result.map fst (parse_strict s))
let verify_string s = guard (fun () -> Result.map snd (parse_strict s))

let salvage_string s =
  guard @@ fun () ->
  if String.trim s = "" then Error "empty token-db file"
  else
    let header, rest =
      match String.split_on_char '\n' s with
      | header :: rest -> (header, rest)
      | [] -> assert false
    in
    match parse_header header with
    | Error e -> Error e
    | Ok (version, nspam, nham) ->
        let t = create () in
        t.nspam <- nspam;
        t.nham <- nham;
        reserve t (List.length rest);
        let seen = Hashtbl.create 4096 in
        let kept = ref 0 and dropped = ref 0 in
        let crc = ref (crc_feed crc_init (header ^ "\n")) in
        let footer = ref None in
        List.iter
          (fun line ->
            if line = "" then ()
            else if String.starts_with ~prefix:footer_prefix line then
              match parse_footer line with
              | Some f -> footer := Some f
              | None -> incr dropped
            else begin
              if !footer = None then crc := crc_feed !crc (line ^ "\n");
              match parse_entry ~version ~nspam ~nham line with
              | Ok (token, spam, ham) when not (Hashtbl.mem seen token) ->
                  Hashtbl.replace seen token ();
                  load_row t token ~spam ~ham;
                  incr kept
              | Ok _ | Error _ -> incr dropped
            end)
          rest;
        let checksum_ok =
          Option.map (fun (fcrc, _) -> fcrc = crc_finish !crc) !footer
        in
        Ok { db = t; version; kept = !kept; dropped = !dropped; checksum_ok }

let footer_crc s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\n' then None
  else
    let start =
      match String.rindex_from_opt s (n - 2) '\n' with Some i -> i + 1 | None -> 0
    in
    Option.map fst (parse_footer (String.sub s start (n - 1 - start)))

let load ic =
  match In_channel.input_all ic with
  | s -> of_string s
  | exception Sys_error e -> Error e

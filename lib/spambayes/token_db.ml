module Obs = Spamlab_obs.Obs
module A = Bigarray.Array1

let db_copies = Obs.counter "spambayes.db_copies"
let db_copy_delta_entries = Obs.counter "spambayes.db_copy_delta_entries"

(* Counts live in flat open-addressing tables keyed by interned token
   id, sized by the tokens a db holds: the intern table is
   process-global and only grows, so a structure dense over ids would
   charge a 20-message throwaway filter for every id interned before it.

   Slot [i] is the three ints [tbl.{3i}] (the id, or [empty]),
   [tbl.{3i+1}] (spam count) and [tbl.{3i+2}] (ham count): a probe and
   the counts it finds share a cache line, and copying a table is one
   blit.  Tables are {!Ints}, outside the OCaml heap, so the GC neither
   marks them nor paces against them.  The capacity is a power of two
   and doubles before the load passes 3/4, so an entry costs 4 to 8
   words.  Entries are never removed.

   A db reads two tables: [ov], its own, which takes every write and
   holds the {e absolute} counts of the ids written to it, then [base],
   immutable and possibly shared.
   Invariants:
   - no [base] slot is ever written, nor an [ov] slot while [lent];
   - [ov_mask < 0] exactly when [ov] is [Ints.empty], and then
     [ov_size = 0]; likewise [base_mask] and [base];
   - [lent] implies [base_mask < 0 <= ov_mask];
   - [distinct] counts ids whose combined count is non-zero, maintained
     on every 0-to-positive / positive-to-0 transition. *)
type t = {
  mutable base : Ints.t;  (* empty until a write promotes a lent [ov] *)
  mutable base_mask : int;  (* slot count - 1, or -1 *)
  mutable ov : Ints.t;  (* empty until the first write *)
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
    base = Ints.empty;
    base_mask = -1;
    ov = Ints.empty;
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
    { t with ov = Ints.copy t.ov }
  end
  else begin
    if t.ov_mask >= 0 then t.lent <- true;
    { t with base = t.ov; base_mask = t.ov_mask; ov = Ints.empty;
             ov_mask = -1; ov_size = 0; lent = false }
  end

let reclaim t =
  t.base <- t.ov;
  t.base_mask <- t.ov_mask;
  t.ov <- Ints.empty;
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
   the table allocates its closure on every call.  Every parameter that
   holds a table is annotated: at a type the compiler cannot see, an
   access is a C call. *)
let rec probe_from (tbl : Ints.t) stride mask id d i =
  let k = A.unsafe_get tbl (stride * i) in
  if k = id || k = empty then i
  else probe_from tbl stride mask id d ((i + d) land mask)

let[@inline] find_slot (tbl : Ints.t) ~stride ~mask id =
  probe_from tbl stride mask id (step id) (id land mask)

(* The slot of [id] in a count table, or -1 when it holds none.  Most
   ids sit at their home slot, which is tested before the probe. *)
let[@inline] lookup (tbl : Ints.t) mask id =
  if mask < 0 then -1
  else
    let i = id land mask in
    let k = A.unsafe_get tbl (3 * i) in
    if k = id then i
    else if k = empty then -1
    else
      let i = find_slot tbl ~stride:3 ~mask id in
      if A.unsafe_get tbl (3 * i) = id then i else -1

(* Where [id]'s counts are: [3i + 1] for slot [i] of [ov], [-(3i + 1)]
   for slot [i] of [base], 0 for neither. *)
let[@inline] slot t id =
  let i = lookup t.ov t.ov_mask id in
  if i >= 0 then (3 * i) + 1
  else
    let j = lookup t.base t.base_mask id in
    if j >= 0 then -((3 * j) + 1) else 0

let[@inline] slot_spam t s =
  if s > 0 then A.unsafe_get t.ov s
  else if s < 0 then A.unsafe_get t.base (-s)
  else 0

let[@inline] slot_ham t s =
  if s > 0 then A.unsafe_get t.ov (s + 1)
  else if s < 0 then A.unsafe_get t.base (1 - s)
  else 0

let spam_count_id t id = slot_spam t (slot t id)
let ham_count_id t id = slot_ham t (slot t id)

(* Rebuild [ov] with [slots] slots (a power of two, room for every
   entry): each entry re-inserted into a fresh table. *)
let resize t slots =
  let old = t.ov and mask = slots - 1 in
  let ov = Ints.make (3 * slots) empty in
  for j = 0 to t.ov_mask do
    let id = A.unsafe_get old (3 * j) in
    if id <> empty then begin
      let i = 3 * find_slot ov ~stride:3 ~mask id in
      A.unsafe_set ov i id;
      A.unsafe_set ov (i + 1) (A.unsafe_get old ((3 * j) + 1));
      A.unsafe_set ov (i + 2) (A.unsafe_get old ((3 * j) + 2))
    end
  done;
  t.ov <- ov;
  t.ov_mask <- mask

(* Size an empty [ov] for [n] entries, and announce them to the intern
   table, so a load fills both without regrowing. *)
let reserve t n =
  Intern.reserve n;
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
    A.unsafe_set ov (3 * i) id;
    A.unsafe_set ov ((3 * i) + 1)
      (if b < 0 then 0 else A.unsafe_get t.base ((3 * b) + 1));
    A.unsafe_set ov ((3 * i) + 2)
      (if b < 0 then 0 else A.unsafe_get t.base ((3 * b) + 2));
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
  let was = A.unsafe_get ov s + A.unsafe_get ov (s + 1) in
  let c = match label with Label.Spam -> s | Label.Ham -> s + 1 in
  A.unsafe_set ov c (A.unsafe_get ov c + k);
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

let train_many_ids t label ids k =
  if k < 0 then invalid_arg "Token_db.train_many: negative count";
  if k > 0 then begin
    touch t;
    (match label with
    | Label.Spam -> t.nspam <- t.nspam + k
    | Label.Ham -> t.nham <- t.nham + k);
    bump_all t label ids k
  end

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

let iter_table f (tbl : Ints.t) mask =
  for i = 0 to mask do
    let id = A.unsafe_get tbl (3 * i) in
    if id <> empty then
      f id
        ~spam:(A.unsafe_get tbl ((3 * i) + 1))
        ~ham:(A.unsafe_get tbl ((3 * i) + 2))
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
  iter_counts (fun id ~spam ~ham -> acc := f !acc id ~spam ~ham) t;
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

(* Zeroing an id the db holds nowhere is a no-op: absent and 0/0 are
   the same observable state, so it claims no slot. *)
let set_counts_id t id ~spam ~ham =
  if spam < 0 || ham < 0 then
    invalid_arg "Token_db.set_counts_id: negative count";
  touch t;
  if spam <> 0 || ham <> 0 || slot t id <> 0 then begin
    let s = (3 * write_slot t id) + 1 in
    let ov = t.ov in
    let was = A.unsafe_get ov s + A.unsafe_get ov (s + 1) in
    A.unsafe_set ov s spam;
    A.unsafe_set ov (s + 1) ham;
    note_transition t ~was ~now:(spam + ham)
  end

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

let[@inline] crc_byte reg c =
  Array.unsafe_get crc_table ((reg lxor Char.code c) land 0xff) lxor (reg lsr 8)

let crc_feed_sub reg s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Token_db.crc_feed_sub";
  let reg = ref reg in
  for i = off to off + len - 1 do
    reg := crc_byte !reg (String.unsafe_get s i)
  done;
  !reg

let crc_feed reg s = crc_feed_sub reg s 0 (String.length s)

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

(* ------------------------------------------------------------------ *)
(* The row scanner.  Every reader of the row grammar — the db loader,
   strict and salvage, and the store's tenant blocks and segment
   verifier — parses a row where it lies in the file string: the two
   tabs and the newline found by index, the counts read in place, and
   a token copied only when it holds an escape. *)

let unescape_sub s off len =
  let buf = Buffer.create len in
  let stop = off + len in
  let rec go i =
    if i >= stop then Ok (Buffer.contents buf)
    else
      match String.unsafe_get s i with
      | '\\' when i + 1 >= stop -> Error "dangling backslash in token"
      | '\\' -> (
          match String.unsafe_get s (i + 1) with
          | ('\\' | 't' | 'n' | 'r') as c ->
              Buffer.add_char buf
                (match c with 't' -> '\t' | 'n' -> '\n' | 'r' -> '\r' | c -> c);
              go (i + 2)
          | c -> Error (Printf.sprintf "bad escape \\%c in token" c))
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go off

let unescape_token s =
  if String.contains s '\\' then unescape_sub s 0 (String.length s) else Ok s

type rows = {
  data : string;
  mutable line : int;
  mutable eol : int;
  mutable tok_off : int;
  mutable tok_len : int;
  mutable escaped : bool;
  mutable tok : string;
  mutable spam : int;
  mutable ham : int;
}

type row = Row | Bad_fields | Bad_escape of string | Bad_counts

let rows data =
  {
    data;
    line = 0;
    eol = 0;
    tok_off = 0;
    tok_len = 0;
    escaped = false;
    tok = "";
    spam = 0;
    ham = 0;
  }

(* Top-level loops, as [probe_from]: these run a few times per row. *)

(* The first tab or newline at or after [i], else [n]. *)
let rec field_end s n i =
  if i >= n then n
  else match String.unsafe_get s i with '\t' | '\n' -> i | _ -> field_end s n (i + 1)

let rec line_end s n i =
  if i >= n || String.unsafe_get s i = '\n' then i else line_end s n (i + 1)

let rec has_backslash s i stop =
  i < stop && (String.unsafe_get s i = '\\' || has_backslash s (i + 1) stop)

(* The count field [s.[off .. stop-1]] when it is 1 to 18 plain digits,
   which cannot overflow; -1 for any other form. *)
let rec digits s i stop acc =
  if i >= stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

let[@inline] plain_count s off stop =
  if stop <= off || stop - off > 18 then -1 else digits s off stop 0

let[@inline] is_tab s n i = i < n && String.unsafe_get s i = '\t'

(* Counts of 1 to 18 plain digits are read in place; any other form
   goes through [int_of_string_opt], as every count always did, so
   signs, [0x], underscores and longer counts read exactly as before. *)
let read_counts r t1 t2 t3 =
  let s = r.data in
  let spam = plain_count s (t1 + 1) t2 and ham = plain_count s (t2 + 1) t3 in
  if spam >= 0 && ham >= 0 then begin
    r.spam <- spam;
    r.ham <- ham;
    Row
  end
  else
    let field off stop = int_of_string_opt (String.sub s off (stop - off)) in
    match (field (t1 + 1) t2, field (t2 + 1) t3) with
    | Some spam, Some ham ->
        r.spam <- spam;
        r.ham <- ham;
        Row
    | _ -> Bad_counts

let scan_row r ~verbatim pos =
  let s = r.data in
  let n = String.length s in
  r.line <- pos;
  let t1 = field_end s n pos in
  let t2 = if is_tab s n t1 then field_end s n (t1 + 1) else t1 in
  let t3 = if is_tab s n t2 then field_end s n (t2 + 1) else t2 in
  if not (is_tab s n t1 && is_tab s n t2) then begin
    r.eol <- t3;
    Bad_fields
  end
  else if is_tab s n t3 then begin
    r.eol <- line_end s n t3;
    Bad_fields
  end
  else begin
    r.eol <- t3;
    r.tok_off <- pos;
    r.tok_len <- t1 - pos;
    r.escaped <- (not verbatim) && has_backslash s pos t1;
    if not r.escaped then read_counts r t1 t2 t3
    else
      match unescape_sub s pos (t1 - pos) with
      | Error e -> Bad_escape e
      | Ok tok ->
          r.tok <- tok;
          read_counts r t1 t2 t3
  end

let row_token r =
  if r.escaped then r.tok else String.sub r.data r.tok_off r.tok_len

let row_line r = String.sub r.data r.line (r.eol - r.line)

let row_id intern r =
  if r.escaped then intern r.tok 0 (String.length r.tok)
  else intern r.data r.tok_off r.tok_len

(* ------------------------------------------------------------------ *)
(* Loading. *)

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

(* The footer exactly as [to_string] writes it: the line must render
   back from what it parsed to, so every byte of it is checked.  [%x]
   alone also takes a case-flipped hex digit. *)
let parse_footer line =
  match
    Scanf.sscanf_opt line "#spamlab-db-footer crc32=%x entries=%d%!"
      (fun crc entries -> (crc, entries))
  with
  | Some (crc, entries) as f
    when line = Printf.sprintf "%scrc32=%08x entries=%d" footer_prefix crc entries
    ->
      f
  | _ -> None

(* [String.trim s = ""], without the copy. *)
let rec blank s i =
  i >= String.length s
  || (match String.unsafe_get s i with
     | ' ' | '\012' | '\n' | '\r' | '\t' -> true
     | _ -> false)
     && blank s (i + 1)

let rec prefix_at s n i p j =
  j >= String.length p
  || (i + j < n
     && String.unsafe_get s (i + j) = String.unsafe_get p j
     && prefix_at s n i p (j + 1))

let rec newlines s n i acc =
  if i >= n then acc
  else newlines s n (i + 1) (if String.unsafe_get s i = '\n' then acc + 1 else acc)

(* The CRC of a line's bytes and its newline — a virtual one for an
   unterminated last line, as the line-split reading always fed. *)
let crc_line reg s start eol =
  if eol < String.length s then crc_feed_sub reg s start (eol - start + 1)
  else crc_byte (crc_feed_sub reg s start (eol - start)) '\n'

(* One row into the loading db, false for a duplicate.  The db's own
   table holds exactly the non-zero rows read so far.  Rows are
   interned in file order; a row with both counts zero is accepted but
   neither retained nor interned, so its token goes in [zeros], and any
   later row with the same token, whatever its counts, repeats it. *)
let load_entry t zeros r =
  if r.spam = 0 && r.ham = 0 then begin
    let tok = row_token r in
    let dup =
      Hashtbl.mem zeros tok
      || match Intern.find tok with Some id -> overlay_mem t id | None -> false
    in
    if not dup then Hashtbl.replace zeros tok ();
    not dup
  end
  else if Hashtbl.length zeros > 0 && Hashtbl.mem zeros (row_token r) then
    false
  else
    let id = row_id Intern.bulk_sub r in
    (not (overlay_mem t id))
    && begin
         set_counts_id t id ~spam:r.spam ~ham:r.ham;
         true
       end

exception Bad_db of string

type read = {
  db : t;
  version : int;
  entries : int;  (* rows loaded *)
  dropped : int;  (* lines rejected; salvage only *)
  footer : (int * int) option;  (* the last footer read *)
  crc : int;  (* over every line before the first footer *)
}

(* One pass over the file string.  The strict reading raises [Bad_db]
   at the first fault; the salvage reading counts the line as dropped
   and reads on, past the footer too.  Both checksum the same bytes:
   every line before the first footer, blank ones included. *)
let read_db ~salvage s =
  let n = String.length s in
  if blank s 0 then raise (Bad_db "empty token-db file");
  let hl = line_end s n 0 in
  let version, nspam, nham =
    match parse_header (String.sub s 0 hl) with
    | Ok h -> h
    | Error e -> raise (Bad_db e)
  in
  let t = create () in
  t.nspam <- nspam;
  t.nham <- nham;
  reserve t (1 + newlines s n hl 0);
  let r = rows s and verbatim = version = 1 in
  let zeros = Hashtbl.create 16 in
  let crc = ref (crc_line crc_init s 0 hl) and sealed = ref false in
  let footer = ref None and entries = ref 0 and dropped = ref 0 in
  let reject msg = if salvage then incr dropped else raise (Bad_db msg) in
  let pos = ref (hl + 1) in
  (* What follows a final newline is no line. *)
  while !pos < n do
    let start = !pos in
    if String.unsafe_get s start = '\n' then begin
      if not !sealed then crc := crc_byte !crc '\n';
      pos := start + 1
    end
    else if !sealed && not salvage then raise (Bad_db "content after checksum footer")
    else if prefix_at s n start footer_prefix 0 then begin
      let eol = line_end s n start in
      pos := eol + 1;
      let line = String.sub s start (eol - start) in
      match parse_footer line with
      | Some f ->
          footer := Some f;
          sealed := true
      | None -> reject (Printf.sprintf "bad footer line %S" line)
    end
    else begin
      let row = scan_row r ~verbatim start in
      pos := r.eol + 1;
      if not !sealed then crc := crc_line !crc s start r.eol;
      match row with
      | Bad_fields -> reject (Printf.sprintf "bad line %S" (row_line r))
      | Bad_escape e -> reject e
      | Bad_counts -> reject (Printf.sprintf "bad counts on line %S" (row_line r))
      | Row ->
          if r.spam < 0 || r.ham < 0 then
            reject (Printf.sprintf "negative count on line %S" (row_line r))
          else if r.spam > nspam || r.ham > nham then
            reject
              (Printf.sprintf "count exceeds header message totals on line %S"
                 (row_line r))
          else if load_entry t zeros r then incr entries
          else reject (Printf.sprintf "duplicate token %S" (row_token r))
    end
  done;
  { db = t; version; entries = !entries; dropped = !dropped; footer = !footer;
    crc = crc_finish !crc }

(* The "never raises" guarantee: anything the parser throws (it should
   not, but corrupt input earns paranoia) becomes [Error] — except
   resource exhaustion, which must propagate. *)
let guard ~salvage s k =
  match read_db ~salvage s with
  | r -> k r
  | exception Bad_db e -> Error e
  | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
  | exception exn -> Error ("token-db parse error: " ^ Printexc.to_string exn)

let strict s =
  guard ~salvage:false s @@ fun (r : read) ->
  let report checksum =
    Ok
      ( r.db,
        { version = r.version; nspam = r.db.nspam; nham = r.db.nham;
          entries = r.entries; checksum } )
  in
  match r.footer with
  | None ->
      if r.version >= 3 then Error "truncated file: missing checksum footer"
      else report `Absent
  | Some (fcrc, fentries) ->
      if fentries <> r.entries then
        Error
          (Printf.sprintf "entry count mismatch: footer says %d, file has %d"
             fentries r.entries)
      else if fcrc <> r.crc then
        Error "checksum mismatch: file is corrupted or truncated"
      else report `Ok

let of_string s = Result.map fst (strict s)
let verify_string s = Result.map snd (strict s)

let salvage_string s =
  guard ~salvage:true s @@ fun (r : read) ->
  Ok
    {
      db = r.db;
      version = r.version;
      kept = r.entries;
      dropped = r.dropped;
      checksum_ok = Option.map (fun (fcrc, _) -> fcrc = r.crc) r.footer;
    }

let footer_crc s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\n' then None
  else
    let start =
      match String.rindex_from_opt s (n - 2) '\n' with Some i -> i + 1 | None -> 0
    in
    Option.map fst (parse_footer (String.sub s start (n - 1 - start)))


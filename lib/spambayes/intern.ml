let interned_tokens = Spamlab_obs.Obs.counter "spambayes.interned_tokens"
let first_sighting = Spamlab_obs.Obs.counter "intern.first_sighting"

(* Id-to-string slots not yet assigned hold this sentinel, compared
   physically: the empty string is a legitimate token (the token-db
   round-trip tests train it), so no string value can mark "unset". *)
let unset = Bytes.unsafe_to_string (Bytes.create 0)

(* The table is open-addressing over [slots] so that lookups can hash a
   {e byte slice} of a raw message buffer and compare it against the
   stored strings without ever materializing a substring — stdlib
   [Hashtbl] can only be probed with an allocated key.  A slot holds
   [id + 1] ([0] is empty); the per-id [hashes] array makes resizes and
   negative probes cheap (no rehash, one int compare before the byte
   compare). *)

(* FNV-1a (offset basis truncated to OCaml's 63-bit int).  Native-int
   arithmetic wraps, which is all a hash needs; [land max_int] keeps
   the masked index non-negative.  Only this module hashes: callers
   hand over bytes ({!add_sub}), never hash values. *)
let fnv_basis = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3
let[@inline] fnv_step h c = (h lxor Char.code c) * fnv_prime

let hash_sub s off len =
  let h = ref fnv_basis in
  for i = off to off + len - 1 do
    h := fnv_step !h (String.unsafe_get s i)
  done;
  !h land max_int

(* The build has no flambda, so a local [let rec] that captures
   variables allocates a closure on every call; the lookup helpers
   below are loops or top-level functions for that reason. *)
let eq_sub name s off len =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (off + !i) do
    incr i
  done;
  !i = len

type state = {
  mutex : Mutex.t;
  mutable slots : int array;  (* live; only touched under [mutex] *)
  mutable names : string array;  (* id -> string; slots written once *)
  mutable hashes : int array;  (* id -> hash; written with [names] *)
  mutable count : int;
}

let initial_capacity = 131_072  (* power of two; load factor <= 1/2 *)

let st =
  {
    mutex = Mutex.create ();
    slots = Array.make initial_capacity 0;
    names = Array.make 1_024 unset;
    hashes = Array.make 1_024 0;
    count = 0;
  }

(* Lock-free lookup snapshot: a copy of [st.slots], never mutated after
   publication.  [Atomic] gives the publication edge; every id a
   snapshot can name had its [names]/[hashes] slot written before the
   snapshot was taken, so probing a snapshot against [st.names] is safe
   from any domain (the same write-once argument as [to_string]).  Read
   [names]/[hashes] only {e after} the snapshot: they are then either
   the arrays of its time or later copies, both valid for its ids. *)
let frozen : int array Atomic.t = Atomic.make (Array.make 1 0)

(* Linear probe of [slots] from slot [i] for the slice
   [s.[off .. off+len-1]] with hash [h]: the id, or -1 when absent.
   The table never exceeds half full, so runs end on an empty slot. *)
let rec probe_from slots mask names hashes h s off len i =
  match Array.unsafe_get slots i with
  | 0 -> -1
  | v ->
      let id = v - 1 in
      if Array.unsafe_get hashes id = h && eq_sub (Array.unsafe_get names id) s off len
      then id
      else probe_from slots mask names hashes h s off len ((i + 1) land mask)

let probe slots h s off len =
  let mask = Array.length slots - 1 in
  probe_from slots mask st.names st.hashes h s off len (h land mask)

let insert_slot slots h id =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i <> 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- id + 1

(* Double the slot table.  The fault site fires before any mutation, so
   an injected transient here leaves the table untouched and the
   supervised task can simply retry. *)
let grow_locked () =
  Spamlab_fault.check "intern.grow";
  let bigger = Array.make (2 * Array.length st.slots) 0 in
  for id = 0 to st.count - 1 do
    insert_slot bigger st.hashes.(id) id
  done;
  st.slots <- bigger

(* Refresh the snapshot whenever the table has grown well past it, so
   steady-state lookups stay lock-free even if nobody calls [freeze]
   explicitly.  Geometric threshold keeps the copies amortized O(1) per
   interned string; the factor is deliberately small (1/4 growth per
   refresh) because every token interned since the last refresh costs
   its callers a snapshot miss — a second lookup under the mutex —
   until the next one.  Only touched under [st.mutex]. *)
let next_refresh = ref 1_024

let refresh_locked () =
  if st.count >= !next_refresh then begin
    Atomic.set frozen (Array.copy st.slots);
    next_refresh := st.count + (st.count / 4) + 1_024
  end

(* Look the slice up in the live table, assigning the next id on a
   miss.  [~copy:true] means [s] is someone else's buffer: the key is
   materialized with [String.sub] — the zero-copy contract's only
   allocation, on a genuine first sighting — and counted as one.
   [~copy:false] stores [s] itself ([off = 0], [len] its length). *)
let intern_locked h s off len ~copy =
  match probe st.slots h s off len with
  | id when id >= 0 -> id
  | _ ->
      if 2 * (st.count + 1) > Array.length st.slots then grow_locked ();
      let id = st.count in
      if id >= Array.length st.names then begin
        let cap = Array.length st.names in
        let bigger = Array.make (2 * cap) unset in
        Array.blit st.names 0 bigger 0 id;
        let bigger_h = Array.make (2 * cap) 0 in
        Array.blit st.hashes 0 bigger_h 0 id;
        (* Publish the grown arrays only after copying: a racing
           [to_string] or frozen probe sees either array, both valid for
           ids < count. *)
        st.hashes <- bigger_h;
        st.names <- bigger
      end;
      st.names.(id) <-
        (if copy then begin
           Spamlab_obs.Obs.incr first_sighting;
           String.sub s off len
         end
         else s);
      st.hashes.(id) <- h;
      insert_slot st.slots h id;
      st.count <- id + 1;
      Spamlab_obs.Obs.incr interned_tokens;
      id

let check_slice fn s off len =
  if off < 0 || len < 0 || off + len > String.length s then invalid_arg fn

let id s =
  let len = String.length s in
  let h = hash_sub s 0 len in
  match probe (Atomic.get frozen) h s 0 len with
  | id when id >= 0 -> id
  | _ ->
      Mutex.protect st.mutex (fun () ->
          let id = intern_locked h s 0 len ~copy:false in
          refresh_locked ();
          id)

let intern_sub s off len =
  check_slice "Intern.intern_sub" s off len;
  let h = hash_sub s off len in
  match probe (Atomic.get frozen) h s off len with
  | id when id >= 0 -> id
  | _ ->
      Mutex.protect st.mutex (fun () ->
          let id = intern_locked h s off len ~copy:true in
          refresh_locked ();
          id)

let intern_array tokens =
  let snapshot = Atomic.get frozen in
  let n = Array.length tokens in
  let out = Array.make n (-1) in
  let missing = ref false in
  for i = 0 to n - 1 do
    let s = tokens.(i) in
    match probe snapshot (hash_sub s 0 (String.length s)) s 0 (String.length s)
    with
    | id when id >= 0 -> out.(i) <- id
    | _ -> missing := true
  done;
  if !missing then
    Mutex.protect st.mutex (fun () ->
        for i = 0 to n - 1 do
          if out.(i) < 0 then begin
            let s = tokens.(i) in
            let len = String.length s in
            out.(i) <- intern_locked (hash_sub s 0 len) s 0 len ~copy:false
          end
        done;
        refresh_locked ());
  out

(* ------------------------------------------------------------------ *)
(* Batched lookup.  A message's keys are appended to one per-domain
   buffer — bytes back to back in [arena], hashed as they are copied —
   and then looked up together in phases over the whole batch, so the
   cache misses of different keys overlap instead of chaining slot ->
   [names.(id)] -> string bytes one key at a time. *)

type keys = {
  mutable arena : Bytes.t;
  (* Key [i] is [arena.[starts.(i) .. starts.(i+1) - 1]]: [starts] has
     [n + 1] live entries, [starts.(0) = 0]. *)
  mutable starts : int array;
  mutable key_hash : int array;
  (* [resolve]'s output, and its per-phase state before that. *)
  mutable ids : int array;
  mutable n : int;
}

let keys_key : keys Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        arena = Bytes.create 16_384;
        starts = Array.make 2_049 0;
        key_hash = Array.make 2_048 0;
        ids = Array.make 2_048 0;
        n = 0;
      })

let keys () =
  let k = Domain.DLS.get keys_key in
  k.n <- 0;
  k

let key_count k = k.n

let grow_keys k =
  let cap = 2 * Array.length k.key_hash in
  let widen a len =
    let b = Array.make len 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  k.starts <- widen k.starts (cap + 1);
  k.key_hash <- widen k.key_hash cap;
  k.ids <- Array.make cap 0

let grow_arena k need =
  let cap = ref (2 * Bytes.length k.arena) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let bigger = Bytes.create !cap in
  Bytes.blit k.arena 0 bigger 0 (Array.unsafe_get k.starts k.n);
  k.arena <- bigger

let add_sub k s off len =
  check_slice "Intern.add_sub" s off len;
  let n = k.n in
  if n = Array.length k.key_hash then grow_keys k;
  let pos = Array.unsafe_get k.starts n in
  if pos + len > Bytes.length k.arena then grow_arena k (pos + len);
  let arena = k.arena in
  let h = ref fnv_basis in
  for i = 0 to len - 1 do
    let c = String.unsafe_get s (off + i) in
    Bytes.unsafe_set arena (pos + i) c;
    h := fnv_step !h c
  done;
  Array.unsafe_set k.key_hash n (!h land max_int);
  Array.unsafe_set k.starts (n + 1) (pos + len);
  k.n <- n + 1

let add k s = add_sub k s 0 (String.length s)

(* Phase markers in [ids] between phases: a home slot that is empty
   (the snapshot does not hold the key) or that holds another key
   (probe on).  Candidate ids are >= 0. *)
let absent = -1
let probe_on = -2

(* Snapshot misses, in key order — so a never-seen key gets its id in
   first-occurrence order — through the live table, which may already
   hold keys interned since the snapshot. *)
let resolve_misses_locked k =
  let arena = Bytes.unsafe_to_string k.arena in
  for i = 0 to k.n - 1 do
    if k.ids.(i) < 0 then begin
      let off = k.starts.(i) in
      k.ids.(i) <-
        intern_locked k.key_hash.(i) arena off (k.starts.(i + 1) - off) ~copy:true
    end
  done;
  refresh_locked ()

let resolve k =
  let n = k.n and ids = k.ids and starts = k.starts and key_hash = k.key_hash in
  let slots = Atomic.get frozen in
  let mask = Array.length slots - 1 in
  let names = st.names and hashes = st.hashes in
  (* Phase 1: every key's home slot. *)
  for i = 0 to n - 1 do
    Array.unsafe_set ids i
      (Array.unsafe_get slots (Array.unsafe_get key_hash i land mask))
  done;
  (* Phase 2: each home occupant's hash, then its name's length — the
     load that brings the name's first bytes in for phase 3. *)
  for i = 0 to n - 1 do
    let v = Array.unsafe_get ids i in
    Array.unsafe_set ids i
      (if v = 0 then absent
       else
         let id = v - 1 in
         if
           Array.unsafe_get hashes id = Array.unsafe_get key_hash i
           && String.length (Array.unsafe_get names id)
              = Array.unsafe_get starts (i + 1) - Array.unsafe_get starts i
         then id
         else probe_on)
  done;
  (* Phase 3: byte compares; a key whose home slot holds another key
     probes on from the next slot. *)
  let arena = Bytes.unsafe_to_string k.arena in
  let missed = ref false in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get ids i in
    if c <> absent then begin
      let off = Array.unsafe_get starts i in
      let len = Array.unsafe_get starts (i + 1) - off in
      if not (c >= 0 && eq_sub (Array.unsafe_get names c) arena off len) then begin
        let h = Array.unsafe_get key_hash i in
        let id =
          probe_from slots mask names hashes h arena off len
            ((h + 1) land mask)
        in
        Array.unsafe_set ids i id
      end
    end;
    if Array.unsafe_get ids i < 0 then missed := true
  done;
  if !missed then Mutex.protect st.mutex (fun () -> resolve_misses_locked k);
  ids

let find_sub s off len =
  check_slice "Intern.find_sub" s off len;
  let h = hash_sub s off len in
  match probe (Atomic.get frozen) h s off len with
  | id when id >= 0 -> Some id
  | _ -> (
      match
        Mutex.protect st.mutex (fun () -> probe st.slots h s off len)
      with
      | id when id >= 0 -> Some id
      | _ -> None)

let find s = find_sub s 0 (String.length s)

let to_string id =
  let names = st.names in
  if id < 0 || id >= Array.length names then
    invalid_arg "Intern.to_string: unknown id"
  else begin
    let s = names.(id) in
    if s == unset then invalid_arg "Intern.to_string: unknown id" else s
  end

(* Lexicographic ranks: [rank id] = the position of [to_string id] in
   the byte-sorted vocabulary as of the last {!freeze}, or -1 for ids
   interned since.  Classify's clue tie-break and the save renderers
   order by token bytes; for covered ids that is one int compare
   instead of a byte compare.  Ids are dense, so the covered ids are
   exactly [0, Array.length ranks).  Built only on explicit [freeze]
   (the "vocabulary is stable now" signal), never on the automatic
   snapshot refresh.  Published by [Atomic] like [frozen]; the array is
   never mutated after publication. *)
let ranks : int array Atomic.t = Atomic.make [||]

let[@inline] rank id =
  let rk = Atomic.get ranks in
  if id >= 0 && id < Array.length rk then Array.unsafe_get rk id else -1

(* Merge [fresh] into [old], both sorted by [name] and disjoint in
   names, calling [f i x] with each element [x] of the merged order and
   its position [i].  Each fresh element gallops (doubling probes, then
   bisection) over [old] from where its predecessor landed, so k fresh
   elements cost O(k log (n/k + 1)) byte compares against n old ones. *)
let merge_into name old fresh f =
  let n = Array.length old in
  let p = ref 0 and w = ref 0 in
  let emit x =
    f !w x;
    incr w
  in
  let take_old upto =
    while !p < upto do
      emit (Array.unsafe_get old !p);
      incr p
    done
  in
  Array.iter
    (fun x ->
      let s = name x in
      let before i = String.compare (name (Array.unsafe_get old i)) s < 0 in
      let lo = ref !p and step = ref 1 in
      while !lo + !step <= n && before (!lo + !step - 1) do
        lo := !lo + !step;
        step := 2 * !step
      done;
      let hi = ref (min n (!lo + !step - 1)) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if before mid then lo := mid + 1 else hi := mid
      done;
      take_old !lo;
      emit x)
    fresh;
  take_old n

(* Incremental: the previous ranks are inverted into the byte-sorted id
   order (O(V), no compares), only the k ids interned since are sorted,
   and the two are merged — ranks identical to a full sort for O(V)
   array work and O(k log V) byte compares under the mutex instead of
   O(V log V). *)
let freeze () =
  Mutex.protect st.mutex (fun () ->
      Atomic.set frozen (Array.copy st.slots);
      let old = Atomic.get ranks in
      let covered = Array.length old and n = st.count in
      if n > covered then begin
        let names = st.names in
        let name id = Array.unsafe_get names id in
        let order = Array.make covered 0 in
        Array.iteri (fun id r -> Array.unsafe_set order r id) old;
        let fresh = Array.init (n - covered) (fun i -> covered + i) in
        Array.stable_sort (fun a b -> String.compare (name a) (name b)) fresh;
        let rk = Array.make n 0 in
        merge_into name order fresh (fun pos id -> Array.unsafe_set rk id pos);
        Atomic.set ranks rk
      end)

(* The one radix sort: LSD over the key bits [shift, shift + bits),
   one byte per pass, stable, O(n) per pass with no compare at all.
   Sorts [src.(0 .. n-1)] using [tmp] (length >= n) as the other
   buffer and [count] (length >= 257) as the digit histogram, and
   returns whichever of [src] and [tmp] holds the result.  A pass
   whose digit is the same for every key would move nothing, so it is
   skipped. *)
let radix_sort src tmp count n ~shift ~bits =
  let src = ref src and dst = ref tmp in
  let sh = ref shift in
  while !sh < shift + bits do
    let s = !src and d = !dst and sh' = !sh in
    Array.fill count 0 257 0;
    for i = 0 to n - 1 do
      let b = ((Array.unsafe_get s i lsr sh') land 255) + 1 in
      Array.unsafe_set count b (Array.unsafe_get count b + 1)
    done;
    if n > 0 && count.(((s.(0) lsr sh') land 255) + 1) < n then begin
      for b = 1 to 256 do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to n - 1 do
        let key = Array.unsafe_get s i in
        let b = (key lsr sh') land 255 in
        Array.unsafe_set d (Array.unsafe_get count b) key;
        Array.unsafe_set count b (Array.unsafe_get count b + 1)
      done;
      src := d;
      dst := s
    end;
    sh := sh' + 8
  done;
  !src

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

(* Per-domain radix buffers for [sort_uniq], grown geometrically, so
   deduplicating a message's ids allocates nothing at steady state. *)
type radix_scratch = { mutable tmp : int array; count : int array }

let radix_key : radix_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tmp = Array.make 2_048 0; count = Array.make 257 0 })

let sort_uniq a n =
  if n < 0 || n > Array.length a then invalid_arg "Intern.sort_uniq";
  let top = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get a i in
    if x < 0 then invalid_arg "Intern.sort_uniq: negative";
    if x > !top then top := x
  done;
  if n = 0 then 0
  else begin
    let sc = Domain.DLS.get radix_key in
    if Array.length sc.tmp < n then
      sc.tmp <- Array.make (max n (2 * Array.length sc.tmp)) 0;
    let sorted = radix_sort a sc.tmp sc.count n ~shift:0 ~bits:(bit_width !top) in
    (* Compact out duplicates into [a]; [w <= i], so this is safe when
       the sort ended in [a] itself. *)
    Array.unsafe_set a 0 (Array.unsafe_get sorted 0);
    let w = ref 1 in
    for i = 1 to n - 1 do
      let x = Array.unsafe_get sorted i in
      if x <> Array.unsafe_get a (!w - 1) then begin
        Array.unsafe_set a !w x;
        incr w
      end
    done;
    !w
  end

(* Covered positions sort on the int key [rank lsl 31 lor pos] (ranks
   and positions both stay below 2^31), uncovered ones by bytes; the
   two runs then merge by galloping, so byte compares are O(k log n)
   for k uncovered ids among n. *)
let byte_order ids n =
  if n < 0 || n > Array.length ids then invalid_arg "Intern.byte_order";
  let rk = Atomic.get ranks in
  let covered = Array.length rk in
  let is_covered pos =
    let id = Array.unsafe_get ids pos in
    id >= 0 && id < covered
  in
  let nk = ref 0 in
  for pos = 0 to n - 1 do
    if is_covered pos then incr nk
  done;
  let keys = Array.make !nk 0 and late = Array.make (n - !nk) 0 in
  let k = ref 0 and l = ref 0 in
  for pos = 0 to n - 1 do
    if is_covered pos then begin
      keys.(!k) <- (rk.(ids.(pos)) lsl 31) lor pos;
      incr k
    end
    else begin
      late.(!l) <- pos;
      incr l
    end
  done;
  let runs =
    radix_sort keys (Array.make !nk 0) (Array.make 257 0) !nk ~shift:31
      ~bits:(bit_width (max 0 (covered - 1)))
  in
  Array.iteri (fun i key -> runs.(i) <- key land ((1 lsl 31) - 1)) runs;
  if !l = 0 then runs
  else begin
    let name pos = to_string (Array.unsafe_get ids pos) in
    Array.stable_sort (fun a b -> String.compare (name a) (name b)) late;
    let out = Array.make n 0 in
    merge_into name runs late (fun i pos -> out.(i) <- pos);
    out
  end

let size () = st.count

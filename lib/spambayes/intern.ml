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

(* FNV-1a over the slice (offset basis truncated to OCaml's 63-bit
   int).  Native-int arithmetic wraps, which is all a hash needs;
   [land max_int] keeps the masked index non-negative. *)
let fnv_prime = 0x100000001b3

let hash_sub s off len =
  let h = ref 0x3bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let eq_sub name s off len =
  String.length name = len
  &&
  let rec go i =
    i >= len
    || String.unsafe_get name i = String.unsafe_get s (off + i) && go (i + 1)
  in
  go 0

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
   from any domain (the same write-once argument as [to_string]). *)
let frozen : int array Atomic.t = Atomic.make (Array.make 1 0)

(* Probe [slots] for the slice [s.[off .. off+len-1]] with hash [h].
   Returns the id, or -1 when absent.  Linear probing; the table never
   exceeds half full, so runs terminate on an empty slot. *)
let probe slots h s off len =
  let mask = Array.length slots - 1 in
  let names = st.names in
  let hashes = st.hashes in
  let rec go i =
    match Array.unsafe_get slots i with
    | 0 -> -1
    | v ->
        let id = v - 1 in
        if Array.unsafe_get hashes id = h && eq_sub names.(id) s off len then
          id
        else go ((i + 1) land mask)
  in
  go (h land mask)

let insert_slot slots h id =
  let mask = Array.length slots - 1 in
  let rec go i =
    if slots.(i) = 0 then slots.(i) <- id + 1 else go ((i + 1) land mask)
  in
  go (h land mask)

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
   its callers a snapshot miss — materialize, queue, resolve under the
   mutex — until the next one.  Only touched under [st.mutex]. *)
let next_refresh = ref 1_024

let refresh_locked () =
  if st.count >= !next_refresh then begin
    Atomic.set frozen (Array.copy st.slots);
    next_refresh := st.count + (st.count / 4) + 1_024
  end

(* [make_name] materializes the key only on a genuine first sighting —
   the zero-copy contract: an already-known slice costs one probe and
   zero allocations. *)
let intern_locked h s off len make_name =
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
      st.names.(id) <- make_name ();
      st.hashes.(id) <- h;
      insert_slot st.slots h id;
      st.count <- id + 1;
      Spamlab_obs.Obs.incr interned_tokens;
      id

let id s =
  let len = String.length s in
  let h = hash_sub s 0 len in
  match probe (Atomic.get frozen) h s 0 len with
  | id when id >= 0 -> id
  | _ ->
      Mutex.protect st.mutex (fun () ->
          let id = intern_locked h s 0 len (fun () -> s) in
          refresh_locked ();
          id)

let intern_sub s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Intern.intern_sub";
  let h = hash_sub s off len in
  match probe (Atomic.get frozen) h s off len with
  | id when id >= 0 -> id
  | _ ->
      Mutex.protect st.mutex (fun () ->
          let id =
            intern_locked h s off len (fun () ->
                Spamlab_obs.Obs.incr first_sighting;
                String.sub s off len)
          in
          refresh_locked ();
          id)

(* Snapshot-only probe: never takes the lock, so a miss may be stale
   (the live table can already hold the slice).  Callers collect such
   misses and resolve them in one [intern_batch] — one lock per
   message instead of one per first-sighting token, which is what
   keeps multi-domain corpus construction off the mutex. *)
let probe_frozen_sub s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Intern.probe_frozen_sub";
  probe (Atomic.get frozen) (hash_sub s off len) s off len

let intern_batch strs n out =
  if n > Array.length strs || n > Array.length out then
    invalid_arg "Intern.intern_batch";
  if n > 0 then begin
    (* Hash outside the lock: with several domains feeding fresh-token
       storms (cold corpus construction), the hold time of the mutex is
       what serializes them, so the critical section is probe+insert
       only. *)
    let hs = Array.make n 0 in
    for i = 0 to n - 1 do
      hs.(i) <- hash_sub strs.(i) 0 (String.length strs.(i))
    done;
    Mutex.protect st.mutex (fun () ->
        for i = 0 to n - 1 do
          let s = strs.(i) in
          out.(i) <-
            intern_locked hs.(i) s 0 (String.length s) (fun () ->
                Spamlab_obs.Obs.incr first_sighting;
                s)
        done;
        refresh_locked ())
  end

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
            out.(i) <- intern_locked (hash_sub s 0 len) s 0 len (fun () -> s)
          end
        done;
        refresh_locked ());
  out

let find_sub s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Intern.find_sub";
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

(* Keys carry a rank above bit 31 and a position below it.  LSD radix
   sort on the rank field, one byte per pass over [bits] bits: O(n)
   per pass with no compare at all.  Returns whichever of [keys] and
   its scratch twin holds the result. *)
let radix_sort_ranks keys bits =
  let n = Array.length keys in
  let src = ref keys and dst = ref (Array.make n 0) in
  let count = Array.make 257 0 in
  let shift = ref 31 in
  while !shift < 31 + bits do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 257 0;
    for i = 0 to n - 1 do
      let b = ((Array.unsafe_get s i lsr sh) land 255) + 1 in
      Array.unsafe_set count b (Array.unsafe_get count b + 1)
    done;
    for b = 1 to 256 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = 0 to n - 1 do
      let key = Array.unsafe_get s i in
      let b = (key lsr sh) land 255 in
      Array.unsafe_set d (Array.unsafe_get count b) key;
      Array.unsafe_set count b (Array.unsafe_get count b + 1)
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  !src

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
  let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
  let runs = radix_sort_ranks keys (bits (max 0 (covered - 1))) in
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

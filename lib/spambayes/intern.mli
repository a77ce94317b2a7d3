(** Global token interning: strings to dense int ids.

    Every token the process ever sees maps to one small int; the hot
    paths ({!Token_db}, {!Classify}) then index count arrays instead of
    hashing strings.  The table is process-global and append-only: an id,
    once assigned, never changes and never goes away, so ids may be
    stored in long-lived structures ({!Token_db} bases,
    [Dataset.example]) and shared freely between domains.

    {2 Zero-copy slices}

    The table is an open-addressing map hashed with FNV-1a over raw
    bytes, so {!intern_sub} can intern a {e slice} of a message buffer
    directly: the slice is hashed and compared in place against the
    stored strings, and a substring is materialized only on the first
    sighting of a brand-new token ([intern.first_sighting] counter).
    The hash function is private to this module.

    {2 Batched lookup}

    Ingest resolves a whole message at once through a per-domain
    {!keys} buffer: {!add_sub} copies each slice into the buffer's
    arena and hashes it as it copies, and {!resolve} looks every key up
    in the frozen snapshot in phases over the batch — all home slots,
    then each occupant's [names] entry, then the byte compares — so the
    cache misses of different keys overlap instead of chaining.  Keys
    the snapshot lacks resolve under one lock through the live table.
    Looking up keys the snapshot already holds allocates nothing once
    the buffer has grown to the message size; a brand-new key costs
    its string, and a batch with any snapshot miss one closure for the
    lock.

    {2 Domain safety}

    Interning is thread-safe: new assignments take a mutex (one lock per
    {!intern_array} or {!resolve} call, not per token).  {!freeze}
    publishes a lock-free snapshot of the current table, so lookups of
    already-interned strings or slices — the entire steady state of an
    experiment after its corpus is built — cost one table probe with no
    lock.  Interning {e after} a freeze is still correct (misses fall
    back to the mutex path); freezing again refreshes the snapshot.

    {!to_string} is lock-free by construction: id-to-string slots are
    written exactly once, before the id is handed out, and ids only
    travel between domains along happens-before edges (the pool queue,
    a mutex, the frozen-snapshot atomic), so a reader's view of the
    table always covers every id it can name.

    {2 Faults}

    Growing the slot table consults the {!Spamlab_fault} site
    ["intern.grow"] {e before} any mutation, so an injected transient
    fault leaves the table untouched and pool supervision can retry the
    interning task.

    {2 Determinism}

    Id {e values} depend on interning order and are therefore
    schedule-dependent under parallel fan-out.  They never reach any
    output: scores depend only on counts, and both clue ordering ties
    and every saved row order ({!Token_db.to_string}, store segments)
    follow the byte order of the token {e strings}, read off {!rank}
    (a pure function of the set of interned strings) or compared
    directly.  Nothing downstream may compare or order raw ids across
    runs. *)

val id : string -> int
(** Intern one string (assigning a fresh id on first sight). *)

val intern_sub : string -> int -> int -> int
(** [intern_sub buf off len] is [id (String.sub buf off len)] without
    the substring: the slice is hashed and compared in place, and the
    token string is materialized only when the slice has never been
    seen before.
    @raise Invalid_argument if [off]/[len] do not denote a slice of
    [buf]. *)

val intern_array : string array -> int array
(** Intern a batch elementwise — at most one lock acquisition for all
    misses together. *)

type keys
(** A batch of byte-string keys: one buffer per domain, reused by
    every batch that domain builds. *)

val keys : unit -> keys
(** The calling domain's key buffer, emptied.  Any buffer obtained
    earlier on the same domain is the same one and is emptied too, so
    finish a batch before starting the next. *)

val add_sub : keys -> string -> int -> int -> unit
(** [add_sub k buf off len] appends the slice [buf.[off .. off+len-1]]
    as the next key: its bytes are copied into [k] and hashed as they
    are copied, so [buf] may change once the call returns.
    @raise Invalid_argument if [off]/[len] do not denote a slice of
    [buf]. *)

val add : keys -> string -> unit
(** [add k s] is [add_sub k s 0 (String.length s)]. *)

val key_count : keys -> int

val resolve : keys -> int array
(** [resolve k] interns every key of [k] and returns an array whose
    first [key_count k] entries are their ids, in key order: each id
    equals [id] of the key's string.  Keys the frozen snapshot holds
    are found lock-free; the rest resolve through the live table under
    one lock, in key order, so never-seen keys get fresh ids in
    first-occurrence order.  The array belongs to [k]: valid until the
    next batch on this domain.  [k] itself is left intact, so a resolve
    that raises (an injected ["intern.grow"] fault) can be retried and
    returns the same ids. *)

val sort_uniq : int array -> int -> int
(** [sort_uniq a n] sorts [a.(0 .. n-1)] ascending and compacts out
    duplicates in place, returning the number of distinct values.
    LSD radix sort, one byte per pass, as many passes as the largest
    value needs — the same routine that orders {!byte_order}'s rank
    keys.  Its scratch is per-domain, so at steady state it allocates
    nothing.
    @raise Invalid_argument if [n] is outside [0 .. Array.length a] or
    a value is negative. *)

val find : string -> int option
(** Lookup without interning — never mutates, so read-only paths
    (e.g. [Token_db.spam_count] on an arbitrary string) stay
    contention-free. *)

val find_sub : string -> int -> int -> int option
(** Slice lookup without interning; agrees with
    [find (String.sub buf off len)] allocation-free.
    @raise Invalid_argument on a bad slice. *)

val to_string : int -> string
(** The string for an assigned id.
    @raise Invalid_argument on an id never returned by this module. *)

val freeze : unit -> unit
(** Publish a lock-free lookup snapshot of the table as of now.  Call
    after corpus/payload construction, before parallel fan-out.  Safe at
    any time, from any domain, any number of times.  (The snapshot also
    refreshes itself automatically once the table has grown well past
    it, so omitting the call costs amortized-O(1) extra work, not
    correctness.)  Also extends the {!rank} table to the ids interned
    since the previous freeze: only those k ids are sorted, then merged
    into the previous byte order, so a freeze costs O(V) array work
    plus O(k log k) byte compares for the sort and O(k log (V/k + 1))
    for the merge (k = V for the first one) — only here, never on the
    automatic refresh. *)

val rank : int -> int
(** The position of [to_string id] in the byte-sorted vocabulary as of
    the last {!freeze}, or [-1] for ids interned since (or never
    assigned).  For two covered ids, [compare (rank a) (rank b)] agrees
    exactly with [String.compare (to_string a) (to_string b)] — the
    int-compare form of Classify's clue tie-break.  Distinct ids hold
    distinct strings, so distinct covered ids never share a rank. *)

val byte_order : int array -> int -> int array
(** [byte_order ids n] is the permutation of the positions [0 .. n-1]
    that lists [ids.(0 .. n-1)] in [String.compare] order of their
    strings — the row order of every saved format.  Positions of
    rank-covered ids sort on an int key; only ids interned since the
    last {!freeze} cost byte compares.  [ids] must be assigned and
    distinct.  The rank keys sort with {!sort_uniq}'s radix routine.
    @raise Invalid_argument if [n] is outside [0 .. Array.length ids]. *)

val size : unit -> int
(** Number of distinct strings interned so far. *)

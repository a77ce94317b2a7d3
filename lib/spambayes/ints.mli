(** Flat int tables outside the OCaml heap.

    Every pointer-free table whose length follows the vocabulary — the
    {!Token_db} count tables, {!Prob_cache}'s private key table, the
    {!Intern} slot, hash and rank tables — is one of these.  A Bigarray
    is a few header words on the heap over a malloc'd body, so the major
    GC neither marks the body's words each cycle nor counts them in the
    heap size that its [space_overhead] pacing lets garbage grow
    against; the body is freed when the header is collected.

    The type is an abbreviation on purpose: an access compiles to a
    plain load or store only where the compiler sees the element kind
    and layout, so read and write with [Bigarray.Array1.unsafe_get] and
    [unsafe_set] on values whose type is known to be [t] (annotate
    function parameters).  An access at a polymorphic type goes through
    the C call [caml_ba_get_1].  This module's own functions are not
    inlined across modules under [-opaque], so none of them is an
    accessor. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val make : int -> int -> t
(** [make n x]: [n] cells, each [x]. *)

val empty : t
(** The one zero-length table, shared: what a table that holds nothing
    yet points at. *)

val copy : t -> t
(** A fresh table with the same cells ({!empty} for {!empty}). *)

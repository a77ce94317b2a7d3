(** Email header fields: an ordered multimap of (name, value) pairs with
    case-insensitive name lookup, as in RFC 2822 §2.2. *)

type t
(** An ordered collection of header fields. *)

val empty : t

val of_list : (string * string) list -> t
(** Field order is preserved.  Names may repeat (e.g. [Received]). *)

val find : t -> string -> string option
(** First field with the given name, case-insensitively. *)

val find_all : t -> string -> string list
(** All fields with the given name, in order. *)

val remove : t -> string -> t
(** Removes every field with the given name. *)

val replace : t -> string -> string -> t
(** [replace t name value] removes all [name] fields then appends one. *)

val iter : (string -> string -> unit) -> t -> unit

val fold : ('a -> string -> string -> 'a) -> 'a -> t -> 'a

val name_equal_sub : string -> int -> int -> string -> bool
(** [name_equal_sub buf off len name]: the slice equals [name],
    ignoring ASCII case, as field names compare.  Allocates nothing. *)

val canonical_name : string -> string
(** Canonical display capitalization: ["message-id"] ->
    ["Message-Id"]. *)

val equal : t -> t -> bool
(** Structural equality with case-insensitive names. *)

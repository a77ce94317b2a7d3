(** Plain-text table rendering for experiment reports. *)

val render : header:string list -> rows:string list list -> string
(** Column widths fit the widest cell; header is separated by a rule.
    Rows shorter than the header are padded with empty cells.
    @raise Invalid_argument on an empty header. *)

val f2 : float -> string
(** Two-decimal float. *)

(** Fixed-bin histograms over a closed interval, used for the Figure 4
    before/after token-score distributions and for defense diagnostics. *)

type t

val create : ?bins:int -> lo:float -> hi:float -> unit -> t
(** [create ~lo ~hi ()] makes an empty histogram of [bins] (default 20)
    equal-width bins spanning [lo, hi].  Values outside the range clamp
    into the edge bins.  @raise Invalid_argument if [bins <= 0] or
    [hi <= lo]. *)

val add : t -> float -> unit

val render : ?width:int -> t -> string
(** ASCII rendering, one line per bin: [lo..hi | ####### n], where bin
    [i] spans [lo + i·w, lo + (i+1)·w) (the last bin is inclusive). *)

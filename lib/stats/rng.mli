(** Deterministic, splittable pseudo-random number generator.

    The whole laboratory must be reproducible from a single integer seed:
    corpora, attacks and experiment resampling all draw from explicitly
    threaded generator states, never from global state.  The implementation
    is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), which is fast, has a
    64-bit state, passes BigCrush, and supports cheap splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay exactly the
    stream [t] would have produced from this point. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Use this
    to hand reproducible sub-streams to sub-experiments. *)

val split_named : t -> string -> t
(** [split_named t name] derives an independent generator keyed by [name];
    unlike {!split} it does not depend on how many times the parent was
    used before, only on the parent's seed and [name].  This keeps
    experiment components reproducible even when siblings change how much
    randomness they consume. *)

val split_indexed : t -> int -> t
(** [split_indexed t i] derives an independent generator keyed by the
    parent's {e current} position and the index [i], without advancing
    the parent.  Splitting every index of an array up front gives each
    element an independent stream that is a pure function of the
    parent's state — the contract that lets element construction fan
    over domains with results identical at every jobs count. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The SplitMix64 output finalizer (variant 13 of Stafford's mixers)
    on its own: a bijection that spreads every input bit over the
    word.  Stateless draws elsewhere (fault selectors, chaos schedules,
    client jitter) are pure functions of their inputs through it. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform on [0,1) with 53 bits of precision. *)


val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] draws [k] distinct elements
    uniformly.  @raise Invalid_argument if [k] exceeds the array length
    or is negative. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)


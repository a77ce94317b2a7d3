(** A registry of named counters, gauges and log2 histograms, each
    flagged {e deterministic} (a pure function of the work done,
    identical at every [--jobs]) or not.  Registries are independent:
    the process-wide {!Obs} counters are one, the daemon and each
    tenant store own theirs.  Updating a metric, and looking a
    registered one up by name, is lock-free and allocates nothing, from
    any domain: the names are an immutable map behind one atomic,
    replaced whole when a metric is registered. *)

type t
type counter
type histogram

val create : unit -> t

val counter : t -> ?deterministic:bool -> string -> counter
(** The counter registered as [name], registering it at zero with the
    flag (default [true]) on first use; a later call's flag is
    ignored.
    @raise Invalid_argument if [name] is registered as another kind. *)

val add : counter -> int -> unit

val gauge : t -> ?deterministic:bool -> string -> (unit -> int) -> unit
(** Register a gauge: a value read by calling the function whenever
    the registry is read.
    @raise Invalid_argument if [name] is already registered. *)

val histogram : t -> ?deterministic:bool -> string -> histogram
(** As {!counter}, for a histogram of non-negative microsecond
    samples. *)

val observe : histogram -> int -> unit
(** Record one sample (negative ones as 0).  Bucket [i] holds the
    samples with [2^(i-1) <= us < 2^i]; bucket 0 holds 0. *)

val quantile : histogram -> float -> int
(** The upper bound [2^i - 1] of the bucket holding the [q]-quantile
    sample, capped at the largest sample: a bound, never a fabricated
    exact value.  0 for an empty histogram. *)

val value : t -> string -> int
(** A counter's or gauge's current value, or a histogram's sample
    count, by name; 0 if nothing is registered under [name]. *)

val counters : t -> (string * int) list
(** Every counter with a non-zero value, sorted by name. *)

val reset : t -> unit
(** Zero every counter and histogram; handles stay valid. *)

val render : t list -> string
(** One line per metric of the registries: ["name value"] for a
    counter or gauge, ["name count=N p50us<=P p99us<=Q maxus=M"] for a
    histogram holding samples (an empty one renders nothing).  The
    deterministic lines of all the registries come first, then the
    rest, each section sorted by name. *)

(** EINTR- and short-transfer-safe file-descriptor I/O, shared by the
    daemon/client wire protocol ({!Spamlab_serve}) and the op journals'
    writes, plus the crash-safe file replacement behind token-db saves
    and folds, store segments and journal resets.

    [Unix.read] and [Unix.write] are allowed to transfer fewer bytes
    than asked — pipes and sockets do this routinely under load — and
    both can fail with [EINTR] when a signal lands mid-call.  Every
    helper here loops until the full count is transferred, retrying
    [EINTR] (and [EAGAIN], for the rare spurious wakeup on a blocking
    descriptor) transparently.

    {2 Fault injection}

    Each helper takes an optional [site] (a {!Spamlab_fault} site name,
    e.g. ["serve.read"]) consulted before every underlying syscall.  An
    injected {e transient} fault is retried like [EINTR] — bounded by an
    internal attempt budget so a pathological spec cannot spin forever —
    while fatal faults propagate and crash faults kill the process at
    exactly that point.  [?site] absent (or the site unarmed) costs one
    atomic load per syscall, nothing more.

    {2 Deadlines}

    Each helper also takes an optional [deadline]: an {e absolute}
    point on the monotonic clock ({!monotonic_s}), checked with a
    [select] wait before every underlying syscall.  Absolute rather
    than per-call, so one armed deadline bounds an entire framed
    transfer — a slow-loris peer trickling one byte per syscall cannot
    renew its budget.  Expiry raises {!Timeout}.  When (and only when)
    a deadline is armed, the wait consults the ["serve.deadline"] fault
    site; a transient fault there is reported as the timeout itself, so
    deterministic fault schedules can exercise reaping paths without
    real waiting.  [?deadline] absent costs nothing. *)

exception Timeout of string
(** An armed deadline expired before the descriptor became ready.  The
    payload names the direction (["read"]/["write"]). *)

val monotonic_s : unit -> float
(** The monotonic clock ({!Spamlab_obs.Clock.now_ns}) in seconds — the
    time base deadlines are expressed in. *)

val really_read :
  ?site:string -> ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> unit
(** [really_read fd buf pos len] fills [buf.[pos .. pos+len-1]] from
    [fd], looping over short reads.
    @raise End_of_file if the descriptor is exhausted first.
    @raise Invalid_argument on a bad range. *)

val really_write_string :
  ?site:string -> ?deadline:float -> Unix.file_descr -> string -> int -> int -> unit
(** [really_write_string fd s pos len] writes all [len] bytes, looping
    over short writes.  @raise Invalid_argument on a bad range. *)

(** {1 Whole files} *)

val read_file : string -> (string, string) result
(** A file's bytes, or the [Sys_error] message for a missing or
    unreadable one. *)

(** {1 Crash-safe file replacement} *)

val atomic_write : ?rename_site:string -> string -> (out_channel -> unit) -> unit
(** [atomic_write path write] replaces [path] crash-safely: [write]
    puts the contents on a channel to [path ^ ".tmp"], which is
    fsynced and renamed over [path], then the directory is synced.  A
    crash at any point leaves the old file or the new one, never a
    torn half-write; a failed write removes the temp file and
    re-raises.  [rename_site] names a fault site checked once the temp
    file is durable, just before the rename; a fault there leaves the
    temp file behind, as a crash would.  The one routine in [lib/]
    that renames a file into place. *)

(** {1 Buffered line/frame reading}

    The wire protocol interleaves CRLF-terminated lines with
    length-prefixed binary bodies on one descriptor, so the reader must
    buffer: a line read may pull body bytes into the buffer, and the
    subsequent body read must consume them before touching the
    descriptor again. *)

type reader

val reader : ?site:string -> ?buf_size:int -> Unix.file_descr -> reader
(** Wrap a descriptor.  [site] is consulted on every refill ([?site] of
    the read helpers above).  [buf_size] defaults to 64 KiB; the buffer
    grows to hold a larger {!read_slice}. *)

val set_deadline : reader -> float option -> unit
(** Arm (or disarm, with [None]) an absolute monotonic deadline applied
    to every refill until changed.  Callers typically arm it once per
    protocol frame and disarm after, so one budget covers however many
    syscalls the frame needs.  An expired deadline makes the next
    refill raise {!Timeout}; bytes already buffered remain readable. *)

val buffered : reader -> int
(** Bytes already pulled from the descriptor but not yet consumed.
    Lets a multiplexing caller know a further frame may be parsable
    without the descriptor selecting readable again. *)

val capacity : reader -> int
(** The size of the reader's buffer in bytes. *)

val read_line : reader -> max:int -> [ `Line of string | `Eof | `Too_long ]
(** The next line, terminated by ["\n"] (a trailing ["\r"] is stripped,
    so CRLF and bare-LF peers both work), without its terminator.
    [`Eof] when the stream ends before any byte of a line; a stream
    ending mid-line yields the partial line.  [`Too_long] once the line
    exceeds [max] bytes — the oversized prefix is discarded up to the
    next terminator so framing can resynchronize if the caller chooses
    to continue. *)

val read_exact : reader -> bytes -> int -> int -> bool
(** [read_exact r buf pos len] — like {!really_read} but draining the
    reader's buffer first; [false] if the stream ends before [len]
    bytes arrive (a torn frame), [true] on success. *)

type slice = { buf : string; off : int; len : int }
(** The bytes [buf.[off .. off+len-1]]. *)

val read_slice : reader -> int -> slice option
(** [read_slice r n] consumes the next [n] bytes and returns them in
    place, as one run of the reader's own buffer: no copy, and, once
    the buffer has grown to hold [n] bytes, no allocation but the
    slice's own few words.  [None] if
    the stream ends first (a torn frame).  The slice is valid until the
    next read from [r], which may reuse the buffer; copy what must
    outlive that.  A buffer grown past 1 MiB is dropped once its slice
    is taken (the slice keeps it alive while it is held), and the
    reader goes on in one of its base size, so one large frame does not
    pin its memory to the connection.
    @raise Invalid_argument if [n] is negative. *)

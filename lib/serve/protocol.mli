(** The spamlab wire protocol — a spamc/spamd-style line protocol with
    [Content-Length]-prefixed mbox bodies.

    {2 Grammar}

    {v
    request    = verb-line *header CRLF body
    verb-line  = verb SP "SPAMLAB/1.0" CRLF
    verb       = "PING" | "STATS" | "PUBLISH"
               | "CLASSIFY" | "TRAIN" | "UNTRAIN" | "HEALTH"
    header     = "Content-Length: " 1*DIGIT CRLF
               | "Message-Class: " ("ham" | "spam") CRLF
               | "User: " 1*VCHAR CRLF
    body       = Content-Length bytes of raw mbox

    response   = "SPAMLAB/1.0 OK" CRLF
                 "Content-Length: " 1*DIGIT CRLF CRLF payload
               | "SPAMLAB/1.0 ERR " message CRLF
               | "SPAMLAB/1.0 BUSY" CRLF
    v}

    Lines may be terminated CRLF or bare LF (a trailing CR is
    stripped).  Each header may appear at most once; a repeat is a
    framing error.  [CLASSIFY]/[TRAIN]/[UNTRAIN] require [Content-Length]
    (0 is legal); [TRAIN]/[UNTRAIN] require [Message-Class]; [PING],
    [STATS], [PUBLISH] and [HEALTH] carry no body.  An [ERR] response
    has no body and the daemon closes the connection after a {e
    framing} error (the stream cannot be resynchronized); request-level
    errors (e.g. an impossible UNTRAIN) also answer [ERR] but leave the
    connection open.  [BUSY] is load shedding, not an error: the
    request was {e not} executed and may be retried after a backoff —
    an overloaded daemon answers it either at admission (the connection
    is closed after the line) or per-request (the connection stays
    open).  [HEALTH] answers an [OK] payload of one line,
    [state=READY|DEGRADED|DRAINING] plus transition counters.
    Requests may be pipelined. *)

type verb =
  | Ping
  | Stats
  | Publish
  | Classify
  | Train of Spamlab_spambayes.Label.gold
  | Untrain of Spamlab_spambayes.Label.gold
  | Health

type request = {
  verb : verb;
  body : string;
  user : string option;
      (** spamc-style tenant routing: [CLASSIFY]/[TRAIN]/[UNTRAIN]
          carrying a [User] header address that user's per-tenant Bayes
          state when the daemon runs a multi-tenant store; without the
          header (or without a store) they address the shared
          single-filter state.  An empty value is a framing error. *)
}

type response =
  | Ok of string  (** payload *)
  | Err of string
  | Busy
      (** Load shed: the request was not executed; retry after backoff. *)

val verb_name : verb -> string
(** The wire verb only (["TRAIN"], not its message class). *)

val default_max_body : int
(** Default cap on [Content-Length] — 16 MiB.  A declared length above
    the cap is a framing error before any body byte is read, so an
    attacker cannot make the daemon allocate unboundedly. *)

val render_request : request -> string
(** Wire bytes of a request (CRLF line endings). *)

val render_response : response -> string

(** {1 Framed receive} *)

val recv_frame :
  ?max_body:int ->
  Spamlab_io.reader ->
  [ `Frame of verb * string option * Spamlab_io.slice | `Eof | `Error of string ]
(** Read one request off the wire, its body in place: [`Frame (verb,
    user, body)], where [body] is a {!Spamlab_io.read_slice} of the
    reader's buffer (empty for a verb without a body), valid until the
    next read from the reader.  [`Eof] is a clean close at a frame
    boundary; [`Error] is a framing violation (malformed verb line or
    header, a repeated header, [Content-Length] missing/overflowing/over
    the cap, torn body, missing blank line) — one line of explanation,
    after which the caller should answer [Err] and close. *)

val recv_request :
  ?max_body:int ->
  Spamlab_io.reader ->
  [ `Request of request | `Eof | `Error of string ]
(** {!recv_frame} with the body copied out into the request, so it
    outlives the next read. *)

val recv_response :
  ?max_body:int ->
  Spamlab_io.reader ->
  [ `Response of response | `Eof | `Error of string ]
(** Client side: read one response.  [`Eof] before any byte means the
    peer closed (e.g. it was killed mid-request). *)

val parse_content_length : string -> (int, string) result
(** Strict decimal parse with overflow detection — ["18446744073709551616"]
    is an error, not a wrapped negative.  Exposed for the framing fuzz
    suite. *)

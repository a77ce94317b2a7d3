module Fault = Spamlab_fault

exception Timeout of string

let () =
  Printexc.register_printer (function
    | Timeout what -> Some (Printf.sprintf "Spamlab_io.Timeout(%s)" what)
    | _ -> None)

(* Deadlines are absolute points on the monotonic clock, so a caller can
   arm one deadline and thread it through many syscalls without the
   budget resetting at each hop (a slow-loris peer trickling one byte
   per syscall must not extend its welcome). *)
let monotonic_s () =
  Int64.to_float (Spamlab_obs.Clock.now_ns ()) *. 1e-9

(* Block until [fd] is ready, or the deadline passes.  Only reached
   when a deadline is armed, so the ["serve.deadline"] probe costs
   deadline-free paths nothing; a transient fault there simulates the
   timeout itself, letting tests and the chaos harness exercise the
   reaping paths without real waiting. *)
let wait_fd ~what ~for_write fd deadline =
  (try Fault.check "serve.deadline"
   with exn when Fault.is_transient exn -> raise (Timeout what));
  let rec go () =
    let remaining = deadline -. monotonic_s () in
    if remaining <= 0.0 then raise (Timeout what)
    else
      let r, w = if for_write then ([], [ fd ]) else ([ fd ], []) in
      match Unix.select r w [] remaining with
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | [], [], _ -> raise (Timeout what)
      | _ -> ()
  in
  go ()

let await ~what ~for_write fd = function
  | None -> ()
  | Some deadline -> wait_fd ~what ~for_write fd deadline

(* Transient injected faults are retried like EINTR, but bounded: a
   probability selector could otherwise fire forever.  The bound is
   generous — the pool's supervision uses 3 attempts; I/O sites see
   more calls, so give them more room. *)
let max_transient_retries = 16

let check_site site attempts =
  match site with
  | None -> ()
  | Some s -> (
      try Fault.check s
      with exn when Fault.is_transient exn ->
        if !attempts >= max_transient_retries then raise exn;
        incr attempts;
        raise_notrace Exit)

(* Run one syscall attempt under the site check and EINTR/EAGAIN
   retry.  [Exit] is the internal "retry" signal from [check_site]. *)
let rec syscall site attempts f =
  match
    check_site site attempts;
    f ()
  with
  | n -> n
  | exception Exit -> syscall site attempts f
  | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) ->
      syscall site attempts f

let bad_range buf pos len =
  pos < 0 || len < 0 || pos > Bytes.length buf - len

let read_some ?site ?deadline fd buf pos len =
  if bad_range buf pos len then invalid_arg "Spamlab_io.read_some";
  if len = 0 then 0
  else
    let attempts = ref 0 in
    syscall site attempts (fun () ->
        await ~what:"read" ~for_write:false fd deadline;
        Unix.read fd buf pos len)

let really_read ?site ?deadline fd buf pos len =
  if bad_range buf pos len then invalid_arg "Spamlab_io.really_read";
  let attempts = ref 0 in
  let rec go pos len =
    if len > 0 then
      match
        syscall site attempts (fun () ->
            await ~what:"read" ~for_write:false fd deadline;
            Unix.read fd buf pos len)
      with
      | 0 -> raise End_of_file
      | n -> go (pos + n) (len - n)
  in
  go pos len

let really_write_string ?site ?deadline fd s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Spamlab_io.really_write_string";
  let attempts = ref 0 in
  let rec go pos len =
    if len > 0 then
      let n =
        syscall site attempts (fun () ->
            await ~what:"write" ~for_write:true fd deadline;
            Unix.write_substring fd s pos len)
      in
      go (pos + n) (len - n)
  in
  go pos len

(* ------------------------------------------------------------------ *)
(* Buffered reader                                                     *)

type reader = {
  fd : Unix.file_descr;
  site : string option;
  base : int;  (* the size a grown buffer drops back to *)
  mutable buf : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* one past the last valid byte *)
  mutable eof : bool;
  mutable deadline : float option;
      (** absolute monotonic seconds; applied to every refill *)
}

let reader ?site ?(buf_size = 65_536) fd =
  let base = max 1 buf_size in
  {
    fd;
    site;
    base;
    buf = Bytes.create base;
    lo = 0;
    hi = 0;
    eof = false;
    deadline = None;
  }

let set_deadline r deadline = r.deadline <- deadline
let buffered r = r.hi - r.lo
let capacity r = Bytes.length r.buf

(* Pull more bytes into the buffer; false at end of stream.  The
   unconsumed bytes move to the front only when the buffer is full up
   to its end. *)
let refill r =
  if r.eof then false
  else begin
    if r.lo = r.hi then begin
      r.lo <- 0;
      r.hi <- 0
    end
    else if r.hi = Bytes.length r.buf then begin
      Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    match
      read_some ?site:r.site ?deadline:r.deadline r.fd r.buf r.hi
        (Bytes.length r.buf - r.hi)
    with
    | 0 ->
        r.eof <- true;
        false
    | n ->
        r.hi <- r.hi + n;
        true
  end

(* Move the unconsumed bytes to the front of a buffer of [size]
   bytes (the same one when it is that size). *)
let rebuffer r size =
  let keep = r.hi - r.lo in
  let dst = if size = Bytes.length r.buf then r.buf else Bytes.create size in
  Bytes.blit r.buf r.lo dst 0 keep;
  r.buf <- dst;
  r.lo <- 0;
  r.hi <- keep

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_line r ~max =
  let out = Buffer.create 80 in
  let discarding = ref false in
  let rec go () =
    match Bytes.index_from_opt r.buf r.lo '\n' with
    | Some nl when nl < r.hi ->
        let too_long =
          !discarding || Buffer.length out + (nl - r.lo) > max
        in
        if not too_long then Buffer.add_subbytes out r.buf r.lo (nl - r.lo);
        r.lo <- nl + 1;
        if too_long then `Too_long else `Line (strip_cr (Buffer.contents out))
    | _ ->
        if not !discarding then
          Buffer.add_subbytes out r.buf r.lo (r.hi - r.lo);
        r.lo <- r.hi;
        if Buffer.length out > max then begin
          (* Oversized: stop accumulating, but keep consuming to the
             terminator so the stream can resynchronize. *)
          discarding := true;
          Buffer.clear out
        end;
        if refill r then go ()
        else if !discarding then `Too_long
        else if Buffer.length out = 0 then `Eof
        else `Line (strip_cr (Buffer.contents out))
  in
  go ()

let read_exact r dst pos len =
  if pos < 0 || len < 0 || pos > Bytes.length dst - len then
    invalid_arg "Spamlab_io.read_exact";
  let rec go pos len =
    if len = 0 then true
    else begin
      let avail = r.hi - r.lo in
      if avail > 0 then begin
        let n = min avail len in
        Bytes.blit r.buf r.lo dst pos n;
        r.lo <- r.lo + n;
        go (pos + n) (len - n)
      end
      else if refill r then go pos len
      else false
    end
  in
  go pos len

type slice = { buf : string; off : int; len : int }

let shrink_above = 1 lsl 20

let read_slice (r : reader) n =
  if n < 0 then invalid_arg "Spamlab_io.read_slice";
  let cap = Bytes.length r.buf in
  if cap - r.lo < n then rebuffer r (if cap >= n then cap else max n (2 * cap));
  let rec fill () = r.hi - r.lo >= n || (refill r && fill ()) in
  if not (fill ()) then None
  else begin
    let s = { buf = Bytes.unsafe_to_string r.buf; off = r.lo; len = n } in
    r.lo <- r.lo + n;
    (* The slice keeps a buffer grown for a large frame alive only as
       long as the caller holds it; the reader goes on in a fresh one
       of its base size (or of what is already buffered past the
       frame, if that is more). *)
    let size = max r.base (r.hi - r.lo) in
    if Bytes.length r.buf > shrink_above && size < Bytes.length r.buf then
      rebuffer r size;
    Some s
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match In_channel.input_all ic with
          | data -> Ok data
          | exception Sys_error e -> Error e)

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dirfd)
        (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())

let atomic_write path write =
  let tmp = path ^ ".tmp" in
  let write () =
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        write oc;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))
  in
  (match write () with
  | () -> ()
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

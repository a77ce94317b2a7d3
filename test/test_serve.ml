(* The serve stack: EINTR/short-transfer I/O, protocol framing (and
   its failure modes), and the daemon end-to-end on a unix socket. *)

module Io = Spamlab_io
module Protocol = Spamlab_serve.Protocol
module Daemon = Spamlab_serve.Daemon
module Client = Spamlab_serve.Client
module Fault = Spamlab_fault
module Label = Spamlab_spambayes.Label
module Filter = Spamlab_spambayes.Filter
module Header = Spamlab_email.Header
module Message = Spamlab_email.Message
module Mbox = Spamlab_email.Mbox
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Ingest = Spamlab_spambayes.Ingest
module Intern = Spamlab_spambayes.Intern
module Token_db = Spamlab_spambayes.Token_db
module Journal = Spamlab_spambayes.Journal
module Store = Spamlab_store.Store

let test_case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let msg ?(headers = []) body =
  Message.make ~headers:(Header.of_list headers) body

let mbox msgs = Mbox.print msgs

(* A reader over fixed bytes (a temp file, so bodies of any size). *)
let with_reader_of_string s f =
  let path = Filename.temp_file "spamlab_serve" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
  let fd = Unix.openfile path [ O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  f (Io.reader fd)

let read_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Spamlab_io                                                          *)

let io_tests =
  [
    test_case "really_read across byte-at-a-time pipe delivery" (fun () ->
        (* Every read returns exactly one byte: the short-read loop in
           really_read/read_line must reassemble the stream. *)
        let payload = "PING SPAMLAB/1.0\r\n\r\nand then some body bytes" in
        let r, w = Unix.pipe ~cloexec:true () in
        let writer =
          Domain.spawn (fun () ->
              String.iter
                (fun c ->
                  let b = Bytes.make 1 c in
                  ignore (Unix.write w b 0 1))
                payload;
              Unix.close w)
        in
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let reader = Io.reader ~buf_size:1 r in
        (match Io.read_line reader ~max:100 with
        | `Line l -> check_string "line" "PING SPAMLAB/1.0" l
        | _ -> Alcotest.fail "expected a line");
        (match Io.read_line reader ~max:100 with
        | `Line l -> check_string "blank" "" l
        | _ -> Alcotest.fail "expected blank line");
        let body = Bytes.create 24 in
        check_bool "read_exact" true (Io.read_exact reader body 0 24);
        check_string "body" "and then some body bytes" (Bytes.to_string body);
        check_bool "eof" true (Io.read_exact reader body 0 1 = false);
        Domain.join writer);
    test_case "really_write drains a multi-megabyte buffer" (fun () ->
        (* Socketpair buffers are tiny; the writer must loop over many
           short writes while the reader drains concurrently. *)
        let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        let data = String.init 3_000_000 (fun i -> Char.chr (i land 0xff)) in
        let writer =
          Domain.spawn (fun () ->
              Io.really_write_string a data 0 (String.length data);
              Unix.close a)
        in
        let got = read_all b in
        Domain.join writer;
        Unix.close b;
        check_int "length" (String.length data) (String.length got);
        check_bool "bytes" true (String.equal data got));
    test_case "read_line: CRLF and bare LF both work, CR stripped" (fun () ->
        with_reader_of_string "one\r\ntwo\nthree" @@ fun r ->
        (match Io.read_line r ~max:10 with
        | `Line l -> check_string "crlf" "one" l
        | _ -> Alcotest.fail "line");
        (match Io.read_line r ~max:10 with
        | `Line l -> check_string "lf" "two" l
        | _ -> Alcotest.fail "line");
        (* Stream ends mid-line: the partial line is yielded. *)
        (match Io.read_line r ~max:10 with
        | `Line l -> check_string "partial" "three" l
        | _ -> Alcotest.fail "line");
        check_bool "eof" true (Io.read_line r ~max:10 = `Eof));
    test_case "read_line: oversized lines resynchronize" (fun () ->
        let long = String.make 5_000 'x' in
        with_reader_of_string (long ^ "\nok\n") @@ fun r ->
        check_bool "too long" true (Io.read_line r ~max:1024 = `Too_long);
        (match Io.read_line r ~max:1024 with
        | `Line l -> check_string "next line survives" "ok" l
        | _ -> Alcotest.fail "line"));
    test_case "read_line: max enforced within one buffered chunk" (fun () ->
        with_reader_of_string (String.make 64 'y' ^ "\n") @@ fun r ->
        check_bool "too long" true (Io.read_line r ~max:10 = `Too_long));
    test_case "transient injected faults retried like EINTR" (fun () ->
        (match Fault.configure "io.test:transient@1+2" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let data = Bytes.of_string "abc" in
        ignore (Unix.write w data 0 3);
        Unix.close w;
        let buf = Bytes.create 3 in
        (* Occurrences 1 and 2 fire transiently; the loop must absorb
           both and still deliver the bytes. *)
        Io.really_read ~site:"io.test" r buf 0 3;
        Unix.close r;
        check_string "payload" "abc" (Bytes.to_string buf));
    test_case "fatal injected faults propagate" (fun () ->
        (match Fault.configure "io.test:fatal@1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
        @@ fun () ->
        let buf = Bytes.create 1 in
        check_bool "raises" true
          (match Io.really_read ~site:"io.test" r buf 0 1 with
          | () -> false
          | exception Fault.Injected _ -> true));
    test_case "bounded retry of a stuck transient site" (fun () ->
        (* A probability-1 transient selector would spin forever
           without the attempt bound. *)
        (match Fault.configure "io.test:transient~1.0" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
        @@ fun () ->
        let buf = Bytes.create 1 in
        check_bool "eventually raises" true
          (match Io.really_read ~site:"io.test" r buf 0 1 with
          | () -> false
          | exception Fault.Injected { kind = Transient; _ } -> true));
    test_case "deadline: read on a silent pipe raises Timeout" (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
        @@ fun () ->
        let buf = Bytes.create 1 in
        let t0 = Io.monotonic_s () in
        check_bool "times out" true
          (match Io.really_read ~deadline:(t0 +. 0.05) r buf 0 1 with
          | () -> false
          | exception Io.Timeout _ -> true);
        (* The wait is the deadline, not some internal retry budget. *)
        check_bool "bounded wait" true (Io.monotonic_s () -. t0 < 2.0));
    test_case "deadline: bytes already in flight beat the clock" (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        ignore (Unix.write_substring w "ab" 0 2);
        Unix.close w;
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let buf = Bytes.create 2 in
        Io.really_read ~deadline:(Io.monotonic_s () +. 5.0) r buf 0 2;
        check_string "payload" "ab" (Bytes.to_string buf));
    test_case "serve.deadline transient fault reports as the timeout" (fun () ->
        (* The site only fires when a deadline is armed, and surfaces as
           Timeout — so fault schedules can exercise reaping paths
           without real waiting. *)
        (match Fault.configure "serve.deadline:transient@1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        ignore (Unix.write_substring w "x" 0 1);
        Unix.close w;
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let buf = Bytes.create 1 in
        check_bool "simulated timeout" true
          (match Io.really_read ~deadline:(Io.monotonic_s () +. 5.0) r buf 0 1 with
          | () -> false
          | exception Io.Timeout _ -> true);
        (* With the fault disarmed the same bytes are deliverable. *)
        Fault.disable ();
        Io.really_read ~deadline:(Io.monotonic_s () +. 5.0) r buf 0 1;
        check_string "delivered after disarm" "x" (Bytes.to_string buf));
    test_case "reader deadline: oversized-line resync, byte-at-a-time" (fun () ->
        (* A slow-loris peer trickling an oversized line one byte per
           syscall: the armed (absolute) deadline spans all refills, and
           resynchronization still lands on the next line. *)
        let r, w = Unix.pipe ~cloexec:true () in
        let writer =
          Domain.spawn (fun () ->
              String.iter
                (fun c -> ignore (Unix.write w (Bytes.make 1 c) 0 1))
                (String.make 3_000 'x' ^ "\nok\n");
              Unix.close w)
        in
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let reader = Io.reader ~buf_size:16 r in
        Io.set_deadline reader (Some (Io.monotonic_s () +. 30.0));
        check_bool "too long" true (Io.read_line reader ~max:1024 = `Too_long);
        (match Io.read_line reader ~max:1024 with
        | `Line l -> check_string "resynchronized" "ok" l
        | _ -> Alcotest.fail "expected the next line");
        check_bool "eof" true (Io.read_line reader ~max:1024 = `Eof);
        Domain.join writer);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)

(* [recv_frame] with its in-place body copied out: what
   [recv_request] returns, read the way the daemon reads it. *)
let frame_request reader =
  match Protocol.recv_frame reader with
  | `Frame (verb, user, { Io.buf; off; len }) ->
      `Request { Protocol.verb; body = String.sub buf off len; user }
  | (`Eof | `Error _) as other -> other

(* One frame through both readers, which must agree. *)
let recv s =
  let copied = with_reader_of_string s Protocol.recv_request in
  if with_reader_of_string s frame_request <> copied then
    Alcotest.failf "recv_request and recv_frame disagree on %S" s;
  copied

let expect_error name s =
  match recv s with
  | `Error _ -> ()
  | `Request _ -> Alcotest.failf "%s: parsed instead of erroring" name
  | `Eof -> Alcotest.failf "%s: EOF instead of error" name

let gen_verb =
  QCheck2.Gen.oneofl
    [
      Protocol.Ping;
      Protocol.Health;
      Protocol.Stats;
      Protocol.Publish;
      Protocol.Classify;
      Protocol.Train Label.Ham;
      Protocol.Train Label.Spam;
      Protocol.Untrain Label.Ham;
      Protocol.Untrain Label.Spam;
    ]

let gen_body =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 2_000))

(* User header values: nonempty VCHAR, so they survive the trim in
   [split_header] unchanged. *)
let gen_user =
  QCheck2.Gen.(
    option (string_size ~gen:(char_range '!' '~') (int_range 1 12)))

let protocol_tests =
  [
    qtest ~count:150 "render/recv round-trips every request"
      QCheck2.Gen.(triple gen_verb gen_body gen_user)
      (fun (verb, body, user) ->
        let body = if Protocol.verb_name verb = "PING" then "" else body in
        let body =
          match verb with
          | Protocol.Classify | Protocol.Train _ | Protocol.Untrain _ -> body
          | _ -> ""
        in
        let req = { Protocol.verb; body; user } in
        match recv (Protocol.render_request req) with
        | `Request r -> r = req
        | _ -> false);
    qtest ~count:100 "pipelined requests all parse, in order"
      QCheck2.Gen.(list_size (int_range 2 5) (pair gen_verb gen_body))
      (fun reqs ->
        let reqs =
          List.map
            (fun (verb, body) ->
              let body =
                match verb with
                | Protocol.Classify | Protocol.Train _ | Protocol.Untrain _ ->
                    body
                | _ -> ""
              in
              { Protocol.verb; body; user = None })
            reqs
        in
        let wire = String.concat "" (List.map Protocol.render_request reqs) in
        (* Through the copying reader and the in-place one: a body
           slice is read before the next frame reuses the buffer. *)
        List.for_all
          (fun recv ->
            with_reader_of_string wire @@ fun reader ->
            let got =
              List.map
                (fun _ ->
                  match recv reader with
                  | `Request r -> Some r
                  | _ -> None)
                reqs
            in
            recv reader = `Eof && List.for_all2 (fun r g -> g = Some r) reqs got)
          [ Protocol.recv_request; frame_request ]);
    test_case "zero-length bodies are legal" (fun () ->
        match recv "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 0\r\n\r\n" with
        | `Request { verb = Protocol.Classify; body = ""; user = None } -> ()
        | _ -> Alcotest.fail "zero-length CLASSIFY should parse");
    test_case "Content-Length overflow is an error, not a wrap" (fun () ->
        (match Protocol.parse_content_length "18446744073709551616" with
        | Error _ -> ()
        | Ok n -> Alcotest.failf "overflow parsed as %d" n);
        (match Protocol.parse_content_length "4611686018427387903" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "in-range value rejected: %s" e);
        expect_error "overflow header"
          "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 99999999999999999999\r\n\r\n");
    test_case "Content-Length above the cap refuses before the body" (fun () ->
        (* The declared length alone must trigger the error — no body
           bytes are present at all. *)
        expect_error "over cap"
          "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 999999999\r\n\r\n");
    test_case "mid-body drop is a torn frame" (fun () ->
        let req = { Protocol.verb = Protocol.Classify; body = String.make 100 'b'; user = None } in
        let wire = Protocol.render_request req in
        match recv (String.sub wire 0 (String.length wire - 40)) with
        | `Error e ->
            check_string "reason" "connection closed mid-body" e
        | _ -> Alcotest.fail "torn body should error");
    test_case "trailing garbage after a request is the next frame's error"
      (fun () ->
        let wire =
          Protocol.render_request { Protocol.verb = Protocol.Ping; body = ""; user = None }
          ^ "random trailing garbage\r\n"
        in
        with_reader_of_string wire @@ fun reader ->
        (match Protocol.recv_request reader with
        | `Request { verb = Protocol.Ping; _ } -> ()
        | _ -> Alcotest.fail "first frame should parse");
        match Protocol.recv_request reader with
        | `Error _ -> ()
        | _ -> Alcotest.fail "garbage should be a framing error");
    test_case "malformed frames: each yields one error" (fun () ->
        List.iter
          (fun (name, s) -> expect_error name s)
          [
            ("no verb", "\r\n");
            ("unknown verb", "FROBNICATE SPAMLAB/1.0\r\n\r\n");
            ("wrong magic", "PING SPAMLAB/9.9\r\n\r\n");
            ("no magic", "PING\r\n\r\n");
            ("header without colon", "PING SPAMLAB/1.0\r\nbogus\r\n\r\n");
            ("unknown header", "PING SPAMLAB/1.0\r\nX-Weird: 1\r\n\r\n");
            ("negative length", "CLASSIFY SPAMLAB/1.0\r\nContent-Length: -1\r\n\r\n");
            ("junk length", "CLASSIFY SPAMLAB/1.0\r\nContent-Length: ten\r\n\r\n");
            ("body on PING", "PING SPAMLAB/1.0\r\nContent-Length: 3\r\n\r\nabc");
            ("TRAIN without class", "TRAIN SPAMLAB/1.0\r\nContent-Length: 0\r\n\r\n");
            ("bad class", "TRAIN SPAMLAB/1.0\r\nMessage-Class: eggs\r\nContent-Length: 0\r\n\r\n");
            ("missing length", "CLASSIFY SPAMLAB/1.0\r\n\r\n");
            ("EOF in headers", "PING SPAMLAB/1.0\r\n");
            ( "repeated Content-Length",
              "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello" );
            ( "repeated Message-Class",
              "TRAIN SPAMLAB/1.0\r\nMessage-Class: ham\r\nMessage-Class: spam\r\nContent-Length: 0\r\n\r\n" );
            ( "repeated User",
              "CLASSIFY SPAMLAB/1.0\r\nUser: alice\r\nUser: bob\r\nContent-Length: 0\r\n\r\n" );
            ( "oversized verb line",
              String.make 4_000 'A' ^ " SPAMLAB/1.0\r\n\r\n" );
          ]);
    qtest ~count:300 "random bytes never crash the request parser"
      QCheck2.Gen.(
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 400))
      (fun junk ->
        with_reader_of_string junk @@ fun reader ->
        (* Drain the stream; every step must return a constructor, and
           the loop must terminate. *)
        let rec drain n =
          if n > 500 then false
          else
            match Protocol.recv_request reader with
            | `Eof | `Error _ -> true
            | `Request _ -> drain (n + 1)
        in
        drain 0);
    qtest ~count:100 "render/recv round-trips responses"
      QCheck2.Gen.(
        pair bool
          (string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 0 500)))
      (fun (ok, payload) ->
        let resp =
          if ok then Protocol.Ok payload
          else
            Protocol.Err
              (String.map (fun c -> if c = '\r' || c = '\n' then ' ' else c) payload)
        in
        with_reader_of_string (Protocol.render_response resp) @@ fun reader ->
        match Protocol.recv_response reader with
        | `Response r -> r = resp
        | _ -> false);
    test_case "HEALTH round-trips and carries no body" (fun () ->
        match
          recv
            (Protocol.render_request
               { Protocol.verb = Protocol.Health; body = ""; user = None })
        with
        | `Request { verb = Protocol.Health; body = ""; user = None } -> ()
        | _ -> Alcotest.fail "HEALTH should parse");
    test_case "BUSY response round-trips as a bare status line" (fun () ->
        check_string "wire form" "SPAMLAB/1.0 BUSY\r\n"
          (Protocol.render_response Protocol.Busy);
        with_reader_of_string (Protocol.render_response Protocol.Busy)
        @@ fun reader ->
        match Protocol.recv_response reader with
        | `Response Protocol.Busy -> ()
        | _ -> Alcotest.fail "BUSY should parse");
    test_case "over-cap Content-Length refused byte-at-a-time under deadline"
      (fun () ->
        (* An attacker declaring a body far over the 16 MiB cap, fed one
           byte per syscall with a read deadline armed: the declared
           length alone must produce the framing error, well before the
           deadline and without reading any body byte. *)
        let wire = "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 999999999\r\n\r\n" in
        let r, w = Unix.pipe ~cloexec:true () in
        let writer =
          Domain.spawn (fun () ->
              String.iter
                (fun c -> ignore (Unix.write w (Bytes.make 1 c) 0 1))
                wire;
              Unix.close w)
        in
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let reader = Io.reader ~buf_size:8 r in
        Io.set_deadline reader (Some (Io.monotonic_s () +. 30.0));
        let t0 = Io.monotonic_s () in
        (match Protocol.recv_request reader with
        | `Error _ -> ()
        | `Request _ -> Alcotest.fail "over-cap request should be refused"
        | `Eof -> Alcotest.fail "EOF instead of framing error");
        check_bool "refused promptly, no hang" true
          (Io.monotonic_s () -. t0 < 10.0);
        Domain.join writer);
    test_case "stalled mid-header hits the read deadline, never hangs"
      (fun () ->
        (* Half a header then silence: without the deadline this read
           would block forever; with it armed the frame read raises
           Timeout in bounded time. *)
        let r, w = Unix.pipe ~cloexec:true () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
        @@ fun () ->
        let partial = "CLASSIFY SPAMLAB/1.0\r\nContent-Le" in
        ignore (Unix.write_substring w partial 0 (String.length partial));
        let reader = Io.reader r in
        Io.set_deadline reader (Some (Io.monotonic_s () +. 0.1));
        let t0 = Io.monotonic_s () in
        check_bool "times out" true
          (match Protocol.recv_request reader with
          | exception Io.Timeout _ -> true
          | `Error _ | `Request _ | `Eof -> false);
        check_bool "bounded" true (Io.monotonic_s () -. t0 < 5.0));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon state in a scratch directory                                 *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    try Unix.rmdir path with Unix.Unix_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "spamlab_serve" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () -> f dir

(* A daemon without a socket over directory [dir]: its db is
   [dir/db.bin] and, with [~store:true], its tenant store [dir/store].
   Dropping it without {!Daemon.shutdown} is the in-process stand-in
   for a crash. *)
let daemon_state ?(publish_every = 4) ?(tokenizer = Tokenizer.spambayes)
    ?(store = false) dir =
  let config =
    {
      (Daemon.default_config ~db_path:(Filename.concat dir "db.bin") ()) with
      Daemon.publish_every;
      tokenizer;
      store =
        (if store then
           Some
             {
               Store.default_config with
               Store.backend = `Sharded (Filename.concat dir "store");
             }
         else None);
    }
  in
  match Daemon.create config with Error e -> Alcotest.fail e | Ok t -> t

(* [f] against [daemon_state], then a clean shutdown. *)
let run_daemon_state ?publish_every ?tokenizer ?store dir f =
  let t = daemon_state ?publish_every ?tokenizer ?store dir in
  Fun.protect ~finally:(fun () -> Daemon.shutdown t) @@ fun () -> f t

(* [run_daemon_state] in a fresh directory. *)
let with_daemon_state ?publish_every ?tokenizer ?store f =
  with_temp_dir @@ fun dir ->
  run_daemon_state ?publish_every ?tokenizer ?store dir @@ fun t -> f t dir

let count_lines_with prefix s =
  List.length
    (List.filter
       (fun l ->
         String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix)
       (String.split_on_char '\n' s))

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end on a unix socket                                  *)

let with_daemon ?(publish_every = 4) ?(limits = Daemon.default_limits) f =
  with_temp_dir @@ fun dir ->
  let addr = Daemon.Unix_sock (Filename.concat dir "s.sock") in
  let db_path = Filename.concat dir "db.bin" in
  let config =
    { (Daemon.default_config ~addr ~db_path ()) with Daemon.publish_every; limits }
  in
  match Daemon.create config with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let stop = Atomic.make false in
      let up = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Daemon.run
              ~ready:(fun _ -> Atomic.set up true)
              ~stop:(fun () -> Atomic.get stop)
              t)
      in
      let finish () =
        Atomic.set stop true;
        (match Domain.join d with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Daemon.shutdown t
      in
      Fun.protect ~finally:finish @@ fun () ->
      while not (Atomic.get up) do
        Domain.cpu_relax ()
      done;
      f addr t db_path

let ok_payload = function
  | Ok (Protocol.Ok p) -> p
  | Ok (Protocol.Err e) -> Alcotest.failf "daemon error: %s" e
  | Ok Protocol.Busy -> Alcotest.fail "unexpected BUSY"
  | Error e -> Alcotest.failf "transport error: %s" (Client.error_message e)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let spam_mbox n =
  mbox
    (List.init n (fun i ->
         msg
           ~headers:[ ("Subject", Printf.sprintf "offer %d" i) ]
           (Printf.sprintf "buy cheap pills now batch%d" i)))

(* ------------------------------------------------------------------ *)
(* Connection loop: framing errors answer once and close               *)

(* Feed raw bytes to the running daemon on a fresh connection; return
   its raw reply bytes.  The daemon may close with part of the input
   unread, which a unix socket reports to this side as a reset once the
   queued reply has been read: that too ends the reply. *)
let converse addr raw =
  let path =
    match addr with
    | Daemon.Unix_sock path -> path
    | Daemon.Tcp _ -> Alcotest.fail "converse speaks unix sockets only"
  in
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (ADDR_UNIX path);
  (try
     Io.really_write_string fd raw 0 (String.length raw);
     Unix.shutdown fd SHUTDOWN_SEND
   with Unix.Unix_error ((EPIPE | ECONNRESET | ENOTCONN), _, _) -> ());
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let ping = { Protocol.verb = Protocol.Ping; body = ""; user = None }

let stat_line payload name =
  List.find_opt
    (String.starts_with ~prefix:(name ^ " "))
    (String.split_on_char '\n' payload)

(* The publish.seq gauge of a running daemon, read by a STATS round
   trip: the publishes so far (0 before the first). *)
let publish_seq addr =
  let payload =
    ok_payload
      (Client.roundtrip addr { Protocol.verb = Stats; body = ""; user = None })
  in
  match stat_line payload "publish.seq" with
  | Some l -> Scanf.sscanf l "publish.seq %d" Fun.id
  | None -> Alcotest.fail "STATS has no publish.seq"

let connection_tests =
  [
    test_case "malformed frame: exactly one ERR line, then close" (fun () ->
        with_daemon @@ fun addr _ _ ->
        List.iter
          (fun raw ->
            let reply = converse addr raw in
            check_int "one ERR"  1 (count_lines_with "SPAMLAB/1.0 ERR" reply);
            check_int "no OK" 0 (count_lines_with "SPAMLAB/1.0 OK" reply))
          [
            "GARBAGE\r\n";
            "PING SPAMLAB/1.0\r\nContent-Length: 9\r\n\r\nxxxxxxxxx";
            "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 99999999999999999999\r\n\r\n";
            "CLASSIFY SPAMLAB/1.0\r\nContent-Length: 50\r\n\r\nshort";
            String.make 2_000 'Z';
          ]);
    test_case "valid pipeline after which garbage: replies then one ERR"
      (fun () ->
        with_daemon @@ fun addr _ _ ->
        let wire =
          Protocol.render_request ping ^ Protocol.render_request ping ^ "junk\r\n"
        in
        let reply = converse addr wire in
        check_int "two OK" 2 (count_lines_with "SPAMLAB/1.0 OK" reply);
        check_int "one ERR" 1 (count_lines_with "SPAMLAB/1.0 ERR" reply));
    test_case "random bytes never kill the connection loop" (fun () ->
        (* One daemon for the whole run: whatever each connection
           sends (the reply shape is free), the loop must terminate it
           and go on answering the next one. *)
        with_daemon @@ fun addr _ _ ->
        QCheck2.Test.check_exn
          (QCheck2.Test.make ~count:120 ~name:"random bytes"
             QCheck2.Gen.(
               string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))
             (fun junk ->
               ignore (converse addr junk);
               match Client.roundtrip addr ping with
               | Ok (Protocol.Ok "pong\n") -> true
               | _ -> false)));
    test_case "valid frames survive serve.read transient faults" (fun () ->
        with_daemon @@ fun addr _ _ ->
        (match Fault.configure "serve.read:transient@1+2+5" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let wire =
          Protocol.render_request ping
          ^ Protocol.render_request
              { Protocol.verb = Protocol.Train Label.Spam;
                body = mbox [ msg ~headers:[ ("Subject", "x") ] "spam words" ];
                user = None }
        in
        let reply = converse addr wire in
        check_int "no ERR" 0 (count_lines_with "SPAMLAB/1.0 ERR" reply);
        check_int "two OK" 2 (count_lines_with "SPAMLAB/1.0 OK" reply));
  ]

let e2e_tests =
  [
    test_case "ping, train, publish, classify, stats" (fun () ->
        with_daemon @@ fun addr _ db_path ->
        check_string "pong" "pong\n"
          (ok_payload (Client.roundtrip addr { Protocol.verb = Ping; body = ""; user = None }));
        let ack =
          ok_payload
            (Client.roundtrip addr
               { Protocol.verb = Train Label.Spam; body = spam_mbox 3; user = None })
        in
        check_bool "train ack" true
          (String.length ack > 0 && String.sub ack 0 8 = "trained=");
        (* publish_every is 4: 3 trains leave the delta unpublished and
           invisible to classify. *)
        check_int "not yet published" 0 (publish_seq addr);
        check_bool "db not yet on disk" false (Sys.file_exists db_path);
        ignore
          (ok_payload
             (Client.roundtrip addr { Protocol.verb = Publish; body = ""; user = None }));
        check_int "published" 1 (publish_seq addr);
        check_bool "db on disk" true (Sys.file_exists db_path);
        let verdicts =
          ok_payload
            (Client.roundtrip addr
               { Protocol.verb = Classify; body = spam_mbox 2; user = None })
        in
        check_int "one line per message" 2
          (List.length
             (List.filter (( <> ) "") (String.split_on_char '\n' verdicts)));
        let stats =
          ok_payload
            (Client.roundtrip addr { Protocol.verb = Stats; body = ""; user = None })
        in
        check_bool "stats has train count" true
          (count_lines_with "train.messages 3" stats = 1);
        check_bool "stats has publish seq" true
          (count_lines_with "publish.seq 1" stats = 1));
    test_case "classify of an empty body answers an empty payload" (fun () ->
        with_daemon @@ fun addr _ _ ->
        check_string "empty" ""
          (ok_payload
             (Client.roundtrip addr { Protocol.verb = Classify; body = ""; user = None })));
    test_case "auto-publish at publish-every, counted in seq" (fun () ->
        with_daemon ~publish_every:2 @@ fun addr _ _ ->
        ignore
          (ok_payload
             (Client.roundtrip addr
                { Protocol.verb = Train Label.Spam; body = spam_mbox 5; user = None }));
        check_int "one auto publish" 1 (publish_seq addr);
        let ack =
          ok_payload
            (Client.roundtrip addr
               { Protocol.verb = Train Label.Spam; body = spam_mbox 1; user = None })
        in
        check_bool "pending after ack" true
          (Client.(
             match roundtrip addr { Protocol.verb = Stats; body = ""; user = None } with
             | Ok (Protocol.Ok s) -> count_lines_with "train.pending 2" s = 1
             | _ -> false)
          || String.length ack > 0));
    test_case "impossible UNTRAIN answers ERR and keeps the connection"
      (fun () ->
        with_daemon @@ fun addr _ _ ->
        match Client.connect addr with
        | Error e -> Alcotest.fail (Client.error_message e)
        | Ok conn ->
            Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
            (match
               Client.request conn
                 { Protocol.verb = Untrain Label.Spam; body = spam_mbox 1; user = None }
             with
            | Ok (Protocol.Err _) -> ()
            | Ok _ -> Alcotest.fail "untrain of unseen succeeded"
            | Error e ->
                Alcotest.failf "transport error: %s" (Client.error_message e));
            (* Semantic error: the same connection still answers. *)
            (match Client.request conn { Protocol.verb = Ping; body = ""; user = None } with
            | Ok (Protocol.Ok p) -> check_string "pong after ERR" "pong\n" p
            | _ -> Alcotest.fail "connection should survive a semantic ERR"));
    test_case "transient publish fault degrades to ERR, next publish works"
      (fun () ->
        with_daemon @@ fun addr _ _ ->
        (match Fault.configure "serve.publish:transient@1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        (match Client.roundtrip addr { Protocol.verb = Publish; body = ""; user = None } with
        | Ok (Protocol.Err _) -> ()
        | Ok _ -> Alcotest.fail "injected publish should fail"
        | Error e ->
            Alcotest.failf "transport error: %s" (Client.error_message e));
        check_int "nothing published" 0 (publish_seq addr);
        ignore
          (ok_payload
             (Client.roundtrip addr { Protocol.verb = Publish; body = ""; user = None }));
        check_int "recovered" 1 (publish_seq addr));
    test_case "restart from the published store serves the same verdicts"
      (fun () ->
        with_temp_dir @@ fun dir ->
        let db_path = Filename.concat dir "db.bin" in
        let eval = spam_mbox 4 in
        let serve_once f =
          let addr = Daemon.Unix_sock (Filename.concat dir "s.sock") in
          let config =
            { (Daemon.default_config ~addr ~db_path ()) with Daemon.publish_every = 0 }
          in
          match Daemon.create config with
          | Error e -> Alcotest.fail e
          | Ok t ->
              let stop = Atomic.make false in
              let up = Atomic.make false in
              let d =
                Domain.spawn (fun () ->
                    Daemon.run
                      ~ready:(fun _ -> Atomic.set up true)
                      ~stop:(fun () -> Atomic.get stop)
                      t)
              in
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set stop true;
                  (match Domain.join d with
                  | Ok () -> ()
                  | Error e -> Alcotest.fail e);
                  Daemon.shutdown t)
              @@ fun () ->
              while not (Atomic.get up) do
                Domain.cpu_relax ()
              done;
              f addr
        in
        let first =
          serve_once (fun addr ->
              ignore
                (ok_payload
                   (Client.roundtrip addr
                      { Protocol.verb = Train Label.Spam; body = spam_mbox 6; user = None }));
              ignore
                (ok_payload
                   (Client.roundtrip addr { Protocol.verb = Publish; body = ""; user = None }));
              ok_payload
                (Client.roundtrip addr { Protocol.verb = Classify; body = eval; user = None }))
        in
        let second =
          serve_once (fun addr ->
              ok_payload
                (Client.roundtrip addr { Protocol.verb = Classify; body = eval; user = None }))
        in
        check_string "verdicts identical across restart" first second);
    test_case "HEALTH answers READY; STATS renders every family"
      (fun () ->
        with_daemon @@ fun addr _ _ ->
        ignore
          (ok_payload
             (Client.roundtrip addr { Protocol.verb = Ping; body = ""; user = None }));
        (* Under default limits and before any HEALTH request, every
           family already renders, at zero. *)
        let stats () =
          ok_payload
            (Client.roundtrip addr { Protocol.verb = Stats; body = ""; user = None })
        in
        let s = stats () in
        let lines = String.split_on_char '\n' s in
        let name l = List.hd (String.split_on_char ' ' l) in
        let rec after_connections = function
          | a :: b :: c :: _ when name a = "connections" -> [ name b; name c ]
          | _ :: rest -> after_connections rest
          | [] -> []
        in
        Alcotest.(check (list string))
          "intern.size, in name order" [ "intern.size"; "io.errors" ]
          (after_connections lines);
        List.iter
          (fun line -> check_int line 1 (count_lines_with line s))
          [
            "requests.health 0";
            "shed.connections 0";
            "timeout.read 0";
            "degraded.entered 0";
            "drain.aborted 0";
          ];
        let requests =
          List.filter
            (String.starts_with ~prefix:"requests.")
            (String.split_on_char '\n' s)
        in
        Alcotest.(check (list string))
          "requests.* in name order" (List.sort compare requests) requests;
        let h =
          ok_payload
            (Client.roundtrip addr { Protocol.verb = Health; body = ""; user = None })
        in
        check_bool "ready" true (contains h "state=READY");
        (* Once exercised, the verb is counted like any other. *)
        check_int "health counted" 1 (count_lines_with "requests.health 1" (stats ())));
    test_case "stalled half-header conn is reaped while CLASSIFY proceeds"
      (fun () ->
        with_daemon
          ~limits:{ Daemon.default_limits with read_timeout_s = 0.3 }
        @@ fun addr _ _ ->
        let parasite =
          Domain.spawn (fun () ->
              Client.stall ~addr ~bytes:"CLASSIFY SPAMLAB/1.0\r\nContent-Le"
                ~hold_s:10.0)
        in
        (* The parasite holds one connection hostage mid-frame; a
           well-behaved client must still be served promptly. *)
        let t0 = Io.monotonic_s () in
        ignore
          (ok_payload
             (Client.roundtrip addr
                { Protocol.verb = Classify; body = spam_mbox 2; user = None }));
        check_bool "served while parasite stalls" true
          (Io.monotonic_s () -. t0 < 5.0);
        match Domain.join parasite with
        | Ok "reaped" -> ()
        | Ok other -> Alcotest.failf "parasite outcome: %s" other
        | Error e -> Alcotest.fail (Client.error_message e));
    test_case "max-conns: the excess connection is answered BUSY" (fun () ->
        with_daemon ~limits:{ Daemon.default_limits with max_conns = 1 }
        @@ fun addr _ _ ->
        match Client.connect addr with
        | Error e -> Alcotest.fail (Client.error_message e)
        | Ok held ->
            Fun.protect ~finally:(fun () -> Client.close held) @@ fun () ->
            (* Complete a request so the holder is definitely admitted
               before the second connection arrives. *)
            (match
               Client.request held { Protocol.verb = Ping; body = ""; user = None }
             with
            | Ok (Protocol.Ok _) -> ()
            | _ -> Alcotest.fail "holder should be served");
            (* The excess connection is shed at admission: BUSY is
               written and the socket closed before any request byte —
               observed with a raw reader (a writing client can race
               the close into EPIPE, which its retry path absorbs). *)
            let path =
              match addr with
              | Daemon.Unix_sock p -> p
              | Daemon.Tcp _ -> Alcotest.fail "unix socket expected"
            in
            let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Unix.connect fd (Unix.ADDR_UNIX path);
            check_string "shed with BUSY" "SPAMLAB/1.0 BUSY\r\n" (read_all fd);
            (* Shedding is bookkept, and the held connection survives. *)
            (match
               Client.request held { Protocol.verb = Stats; body = ""; user = None }
             with
            | Ok (Protocol.Ok s) ->
                check_int "shed counted" 1 (count_lines_with "shed.connections 1" s)
            | _ -> Alcotest.fail "held connection should still answer"));
    test_case "publish-failure streak degrades TRAIN; PUBLISH recovers"
      (fun () ->
        with_daemon ~publish_every:2
          ~limits:{ Daemon.default_limits with degraded_after = 1 }
        @@ fun addr _ _ ->
        (match Fault.configure "serve.publish:transient~1.0" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let rt verb body =
          Client.roundtrip addr { Protocol.verb = verb; body; user = None }
        in
        (* 3 >= publish_every msgs: the auto-publish fails, but training
           itself succeeded, so the ack is Ok with the failure noted. *)
        let ack = ok_payload (rt (Train Label.Spam) (spam_mbox 3)) in
        check_bool "publish failure noted in ack" true
          (contains ack "publish_error=1");
        (* Streak 1 >= degraded_after: mutations now refused... *)
        (match rt (Train Label.Spam) (spam_mbox 1) with
        | Ok (Protocol.Err e) ->
            check_bool "DEGRADED error" true (contains e "DEGRADED")
        | Ok _ -> Alcotest.fail "TRAIN should be refused when degraded"
        | Error e -> Alcotest.fail (Client.error_message e));
        check_bool "health says degraded" true
          (contains (ok_payload (rt Health "")) "state=DEGRADED");
        (* ...while reads keep serving from the last good snapshot. *)
        ignore (ok_payload (rt Classify (spam_mbox 2)));
        (* Operator clears the fault; an explicit PUBLISH recovers. *)
        Fault.disable ();
        check_bool "publish recovers" true
          (contains (ok_payload (rt Publish "")) "seq=1");
        check_bool "ready again" true
          (contains (ok_payload (rt Health "")) "state=READY");
        ignore (ok_payload (rt (Train Label.Spam) (spam_mbox 1))));
    test_case "connect failure surfaces the errno, marked recoverable"
      (fun () ->
        with_temp_dir @@ fun dir ->
        let addr = Daemon.Unix_sock (Filename.concat dir "nobody-home.sock") in
        match Client.connect addr with
        | Ok conn ->
            Client.close conn;
            Alcotest.fail "connect to an unbound socket succeeded"
        | Error e ->
            check_bool "errno surfaced" true
              (match e.Client.errno with
              | Some Unix.ENOENT | Some Unix.ECONNREFUSED -> true
              | _ -> false);
            check_bool "recoverable" true e.Client.recoverable;
            (* The rendering names the syscall failure, not a vague
               "connection lost". *)
            check_bool "message carries strerror" true
              (String.length (Client.error_message e) > String.length "connect"));
    test_case "load summary is byte-identical with limits armed" (fun () ->
        (* The acceptance invariant in miniature: the same deterministic
           schedule against an unconstrained daemon and against one with
           admission caps + deadlines armed must produce the same
           summary bytes — shedding and retries are absorbed by the
           client backoff, never surfacing in the deterministic output. *)
        let run limits =
          with_daemon ~publish_every:8 ~limits @@ fun addr _ _ ->
          match
            Client.load
              {
                (Client.default_load ~addr ~seed:7) with
                clients = 2;
                train_size = 24;
                eval_size = 12;
                train_batch = 4;
                classify_batch = 4;
              }
          with
          | Ok r -> r.Client.summary
          | Error e -> Alcotest.fail e
        in
        let unarmed = run Daemon.default_limits in
        let armed =
          run
            {
              Daemon.default_limits with
              read_timeout_s = 2.0;
              idle_timeout_s = 5.0;
              max_conns = 1;
              max_inflight = 1;
            }
        in
        check_string "summaries" unarmed armed);
  ]

(* ------------------------------------------------------------------ *)
(* The write path: TRAIN ingests like CLASSIFY, tenant TRAIN rolls back *)

let local t ?user verb body = Daemon.handle_request t { Protocol.verb; body; user }

let local_ok t ?user verb body =
  match local t ?user verb body with
  | Protocol.Ok p -> p
  | Protocol.Err e -> Alcotest.failf "daemon error: %s" e
  | Protocol.Busy -> Alcotest.fail "unexpected BUSY"

(* STATS read in process, as a client reads it: one more STATS
   request, counted in requests.stats like any other. *)
let stats t = local_ok t Protocol.Stats ""

(* Headers SpamAssassin's Bayes ignores (delivery bookkeeping, another
   filter's verdict) beside the ones the tokenizers mine. *)
let bookkeeping_mail =
  msg
    ~headers:
      [
        ("From", "Alice <alice@example.com>");
        ("Subject", "cheap pills offer");
        ("Date", "Thu, 1 Jan 2004 10:00:00 +0000");
        ("Message-ID", "<20040101.abc123@mail.example.com>");
        ("X-Spam-Status", "No, score=-2.6 required=5.0 tests=none");
      ]
    "buy cheap pills now\nlimited offer, reply today\n"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every published row as (token, spam, ham), sorted: the db plus the
   committed prefix of its journal. *)
let db_rows db_path =
  match Filter.load_file db_path with
  | Error e -> Alcotest.fail e
  | Ok f ->
      List.sort compare
        (Token_db.fold
           (fun acc id ~spam ~ham -> (Intern.to_string id, spam, ham) :: acc)
           [] (Filter.db f))

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let write_path_tests =
  [
    test_case "TRAIN learns exactly the ids CLASSIFY's ingest reads"
      (fun () ->
        let body = mbox [ bookkeeping_mail ] in
        (* Publish one TRAIN of [body] and return the db's rows. *)
        let trained tokenizer =
          with_daemon_state ~publish_every:0 ~tokenizer @@ fun t dir ->
          ignore (local_ok t (Protocol.Train Label.Spam) body);
          ignore (local_ok t Protocol.Publish "");
          db_rows (Filename.concat dir "db.bin")
        in
        (* Bogofilter mines every header, so the string path used to
           learn date:/message-id: tokens no CLASSIFY ever looks up. *)
        let rows = trained (Option.get (Tokenizer.find "bogofilter")) in
        let has prefix =
          List.exists (fun (tok, _, _) -> String.starts_with ~prefix tok) rows
        in
        check_bool "mined headers are learned" true (has "subject:");
        List.iter
          (fun prefix -> check_bool ("no " ^ prefix ^ " row") false (has prefix))
          [ "date:"; "message-id:"; "x-spam-status:" ];
        List.iter
          (fun (name, tokenizer) ->
            let want =
              match Mbox.chunks body with
              | [| (off, len) |] -> (
                  match Ingest.unique_ids_raw tokenizer body ~off ~len with
                  | Some (ids, _raw) ->
                      List.sort compare
                        (Array.to_list
                           (Array.map (fun id -> (Intern.to_string id, 1, 0)) ids))
                  | None -> Alcotest.fail "chunk is malformed")
              | _ -> Alcotest.fail "expected one chunk"
            in
            Alcotest.(check (list (triple string int int)))
              (name ^ ": rows TRAIN added") want (trained tokenizer))
          Tokenizer.all);
    test_case "a tenant's unpublished TRAIN scores at once" (fun () ->
        (* CLASSIFY never interns, but once the table has grown since
           the frozen intern snapshot it looks the snapshot's misses up
           in the live table, so a token only this tenant has trained,
           never published, already carries its counts. *)
        with_daemon_state ~publish_every:0 ~store:true @@ fun t _dir ->
        let probe = mbox [ msg "freshtokenqq" ] in
        let untrained = local_ok t ~user:"dave" Protocol.Classify probe in
        check_bool "CLASSIFY interned nothing" true (Intern.find "freshtokenqq" = None);
        ignore
          (local_ok t ~user:"erin" (Protocol.Train Label.Spam)
             (mbox
                (List.init 3 (fun i ->
                     msg (Printf.sprintf "freshtokenqq pills%d" i)))));
        (match Intern.find "freshtokenqq" with
        | Some id -> check_int "interned since the last freeze" (-1) (Intern.rank id)
        | None -> Alcotest.fail "TRAIN did not intern the token");
        let before = local_ok t ~user:"erin" Protocol.Classify probe in
        ignore (local_ok t Protocol.Publish "");
        let after = local_ok t ~user:"erin" Protocol.Classify probe in
        check_string "trained, before PUBLISH" "0 spam 0.934783\n" before;
        check_string "trained, after PUBLISH" before after;
        check_bool "an untrained tenant reads it differently" true
          (untrained <> before));
    test_case "CLASSIFY of never-seen words grows no table; TRAIN does"
      (fun () ->
        with_daemon_state ~publish_every:0 ~store:true @@ fun t _dir ->
        let body = mbox [ msg "zzunseenqa zzunseenqb zzunseenqc\nzzunseenqd" ] in
        let size = Intern.size () in
        let stat () = stat_line (stats t) "intern.size" in
        ignore (local_ok t Protocol.Classify body);
        ignore (local_ok t ~user:"frank" Protocol.Classify body);
        check_int "shared and tenant CLASSIFY" size (Intern.size ());
        Alcotest.(check (option string))
          "STATS" (Some (Printf.sprintf "intern.size %d" size)) (stat ());
        ignore (local_ok t ~user:"frank" (Protocol.Train Label.Spam) body);
        check_bool "TRAIN interns what it learns" true (Intern.size () > size);
        Alcotest.(check (option string))
          "STATS after TRAIN"
          (Some (Printf.sprintf "intern.size %d" (Intern.size ())))
          (stat ()));
    test_case "tenant TRAIN failing mid-batch is rolled back whole" (fun () ->
        let user = "carol" in
        let mail i =
          msg
            ~headers:[ ("Subject", Printf.sprintf "quarterly numbers %d" i) ]
            (Printf.sprintf "agenda for friday meeting item%d\n" i)
        in
        let eval = spam_mbox 2 ^ mbox [ mail 9 ] in
        (* A tenant warmed up with two messages, then [f], then an
           explicit PUBLISH; returns the store directory's files. *)
        let run f =
          with_daemon_state ~publish_every:0 ~store:true @@ fun t dir ->
          ignore
            (local_ok t ~user (Protocol.Train Label.Ham) (mbox [ mail 0; mail 1 ]));
          f t;
          ignore (local_ok t Protocol.Publish "");
          dir_files (Filename.concat dir "store")
        in
        let untouched = run ignore in
        let faulted =
          run (fun t ->
              let stats () = stats t in
              let classify () = local_ok t ~user Protocol.Classify eval in
              let stats_before = stats () and verdicts_before = classify () in
              (match Fault.configure "store.journal.append:fatal@3" with
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              (match
                 Fun.protect ~finally:Fault.disable (fun () ->
                     local t ~user (Protocol.Train Label.Spam)
                       (mbox [ mail 2; mail 3; mail 4; mail 5 ]))
               with
              | Protocol.Err _ -> ()
              | _ -> Alcotest.fail "a TRAIN whose third append fails must answer ERR");
              List.iter
                (fun name ->
                  Alcotest.(check (option string))
                    name
                    (stat_line stats_before name)
                    (stat_line (stats ()) name))
                [ "train.messages"; "train.pending" ];
              check_string "the tenant's overlay scores as before"
                verdicts_before (classify ()))
        in
        Alcotest.(check (list (pair string string)))
          "store after PUBLISH" untouched faulted);
    test_case "a failed UNTRAIN applies nothing, shared or tenant" (fun () ->
        let trained = msg ~headers:[ ("Subject", "offer 0") ] "buy cheap pills now" in
        let never = msg ~headers:[ ("Subject", "minutes") ] "agenda for friday" in
        List.iter
          (fun user ->
            with_daemon_state ~publish_every:0 ~store:true @@ fun t _dir ->
            ignore (local_ok t ?user (Protocol.Train Label.Spam) (mbox [ trained ]));
            let stats_before = stats t in
            (match local t ?user (Protocol.Untrain Label.Spam) (mbox [ trained; never ]) with
            | Protocol.Err _ -> ()
            | _ -> Alcotest.fail "UNTRAIN of a never-trained message must answer ERR");
            List.iter
              (fun name ->
                Alcotest.(check (option string))
                  name
                  (stat_line stats_before name)
                  (stat_line (stats t) name))
              [ "untrain.messages"; "train.pending" ];
            ignore (local_ok t ?user (Protocol.Untrain Label.Spam) (mbox [ trained ])))
          [ None; Some "grace" ]);
    test_case "every mutation and PUBLISH ack carries boot=" (fun () ->
        with_daemon_state ~publish_every:0 ~store:true @@ fun t _dir ->
        let boot = Unix.getpid () in
        let user = "frank" in
        check_string "shared TRAIN"
          (Printf.sprintf "trained=2 malformed=0 pending=2 seq=0 boot=%d\n" boot)
          (local_ok t (Protocol.Train Label.Spam) (spam_mbox 2));
        check_string "PUBLISH"
          (Printf.sprintf "published seq=1 boot=%d\n" boot)
          (local_ok t Protocol.Publish "");
        (* A fresh tenant over an empty prior: user.msgs= counts its own
           messages. *)
        check_string "tenant TRAIN"
          (Printf.sprintf
             "trained=3 malformed=0 pending=3 seq=1 boot=%d user.msgs=3\n" boot)
          (local_ok t ~user (Protocol.Train Label.Spam) (spam_mbox 3));
        check_string "tenant UNTRAIN"
          (Printf.sprintf
             "untrained=1 malformed=0 pending=4 seq=1 boot=%d user.msgs=2\n" boot)
          (local_ok t ~user (Protocol.Untrain Label.Spam) (spam_mbox 1)));
  ]

(* ------------------------------------------------------------------ *)
(* PUBLISH in proportion to what changed                               *)

let ham_mbox n =
  mbox
    (List.init n (fun i ->
         msg
           ~headers:[ ("Subject", Printf.sprintf "minutes %d" i) ]
           (Printf.sprintf "agenda for friday meeting item%d" i)))

let read_file_opt path =
  if Sys.file_exists path then Some (read_file path) else None

(* Every file under [dir], as (path relative to it, bytes), sorted. *)
let rec tree_files ?(prefix = "") dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         let rel = if prefix = "" then name else Filename.concat prefix name in
         if Sys.is_directory path then tree_files ~prefix:rel path
         else [ (rel, read_file path) ])

(* The store's user-to-shard hash (32-bit FNV-1a). *)
let shard_of user =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) user;
  !h mod Store.default_config.Store.shards

let header_only db =
  match Token_db.footer_crc db with
  | Some crc -> Printf.sprintf "spamlab-db-journal 1 db_crc=%08x\n" crc
  | None -> Alcotest.fail "db has no v3 footer"

let publish_tests =
  [
    test_case "a PUBLISH rewrites only what changed" (fun () ->
        with_daemon_state ~publish_every:0 ~store:true @@ fun t dir ->
        List.iter
          (fun user ->
            ignore (local_ok t ~user (Protocol.Train Label.Spam) (spam_mbox 4)))
          [ "ann"; "ben"; "cat" ];
        ignore (local_ok t (Protocol.Train Label.Ham) (ham_mbox 4));
        ignore (local_ok t Protocol.Publish "");
        let compactions () =
          stat_line (stats t) "store.compactions"
        in
        let before = tree_files dir and compacted = compactions () in
        check_bool "the shared journal exists" true
          (List.mem_assoc "db.bin.journal" before);
        ignore (local_ok t ~user:"ben" (Protocol.Train Label.Ham) (ham_mbox 1));
        ignore (local_ok t Protocol.Publish "");
        Alcotest.(check (option string))
          "no compaction" compacted (compactions ());
        let after = tree_files dir in
        Alcotest.(check (list string))
          "the same files" (List.map fst before) (List.map fst after);
        let grown = Printf.sprintf "store/shard-%04d.journal" (shard_of "ben") in
        List.iter2
          (fun (name, old) (_, now) ->
            if name = grown then
              check_bool (name ^ " grew by an append") true
                (String.length now > String.length old
                && String.starts_with ~prefix:old now)
            else check_string (name ^ " unchanged") old now)
          before after;
        ignore (local_ok t Protocol.Publish "");
        Alcotest.(check (list (pair string string)))
          "a PUBLISH with nothing trained writes nothing" after (tree_files dir));
    test_case "the canonical form does not depend on where PUBLISH fell"
      (fun () ->
        let steps =
          [
            (None, Protocol.Train Label.Spam, spam_mbox 3);
            (Some "ann", Protocol.Train Label.Ham, ham_mbox 2);
            (Some "ben", Protocol.Train Label.Spam, spam_mbox 2);
            (None, Protocol.Train Label.Ham, ham_mbox 3);
            (None, Protocol.Untrain Label.Spam, spam_mbox 1);
            (Some "ann", Protocol.Untrain Label.Ham, ham_mbox 1);
            (Some "ben", Protocol.Train Label.Ham, ham_mbox 1);
          ]
        in
        let run ~publish_every ~publish_each ~publish_last =
          with_temp_dir @@ fun dir ->
          run_daemon_state ~publish_every ~store:true dir (fun t ->
              List.iter
                (fun (user, verb, body) ->
                  ignore (local_ok t ?user verb body);
                  if publish_each then ignore (local_ok t Protocol.Publish ""))
                steps;
              if publish_last then ignore (local_ok t Protocol.Publish ""));
          tree_files dir
        in
        let each = run ~publish_every:0 ~publish_each:true ~publish_last:false in
        let last = run ~publish_every:0 ~publish_each:false ~publish_last:true in
        let auto = run ~publish_every:1 ~publish_each:false ~publish_last:false in
        List.iter
          (fun (name, files) ->
            Alcotest.(check (list (pair string string)))
              ("PUBLISH after every request == " ^ name)
              each files;
            check_string (name ^ ": db.bin.journal is header-only")
              (header_only (List.assoc "db.bin" files))
              (List.assoc "db.bin.journal" files))
          [ ("one PUBLISH at the end", last); ("publish_every 1", auto) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Shared-journal recovery                                             *)

let recovery_mails =
  Array.init 5 (fun i ->
      msg
        ~headers:[ ("Subject", Printf.sprintf "note %d" i) ]
        (Printf.sprintf "word%d kind%d filler text" i (i mod 2)))

let recovery_eval = mbox (Array.to_list recovery_mails) ^ spam_mbox 2

type step = Train of Label.gold * int | Untrain of Label.gold * int | Publish

let apply_step t = function
  | Train (label, i) ->
      ignore (local t (Protocol.Train label) (mbox [ recovery_mails.(i) ]))
  | Untrain (label, i) ->
      ignore (local t (Protocol.Untrain label) (mbox [ recovery_mails.(i) ]))
  | Publish -> ignore (local_ok t Protocol.Publish "")

(* A missing db is the empty one. *)
let db_bytes dir =
  match read_file_opt (Filename.concat dir "db.bin") with
  | Some db -> db
  | None -> Token_db.to_string (Token_db.create ())

(* An uninterrupted run of [steps] up to and including its [n]th
   PUBLISH: CLASSIFY verdicts of the published state, and the db after
   a clean shutdown. *)
let reference steps n =
  let rec upto n = function
    | [] -> []
    | Publish :: _ when n = 1 -> [ Publish ]
    | Publish :: rest -> Publish :: upto (n - 1) rest
    | s :: rest -> s :: upto n rest
  in
  with_temp_dir @@ fun dir ->
  let verdicts =
    run_daemon_state ~publish_every:0 dir (fun t ->
        List.iter (apply_step t) (if n = 0 then [] else upto n steps);
        local_ok t Protocol.Classify recovery_eval)
  in
  (verdicts, db_bytes dir)

(* A daemon reopened over [dir]: its verdicts, and its db after a clean
   shutdown. *)
let reopened dir =
  let verdicts =
    run_daemon_state ~publish_every:0 dir (fun t ->
        local_ok t Protocol.Classify recovery_eval)
  in
  (verdicts, db_bytes dir)

let gen_schedule =
  let open QCheck2.Gen in
  let label = oneofl [ Label.Spam; Label.Ham ] in
  let msg_i = int_bound (Array.length recovery_mails - 1) in
  let step =
    frequency
      [
        (5, map2 (fun l i -> Train (l, i)) label msg_i);
        (2, map2 (fun l i -> Untrain (l, i)) label msg_i);
        (3, return Publish);
      ]
  in
  pair (list_size (int_range 1 24) step) (option (float_bound_exclusive 1.0))

let show_schedule (steps, cut) =
  String.concat " "
    (List.map
       (function
         | Train (l, i) -> Printf.sprintf "T%s%d" (Label.gold_to_string l) i
         | Untrain (l, i) -> Printf.sprintf "U%s%d" (Label.gold_to_string l) i
         | Publish -> "P")
       steps)
  ^ match cut with Some f -> Printf.sprintf " cut@%.3f" f | None -> ""

let recovery_tests =
  [
    qtest ~count:60 ~print:show_schedule
      "crash, torn journal: a reopened daemon holds the last successful PUBLISH"
      gen_schedule
      (fun (steps, cut) ->
        with_temp_dir @@ fun dir ->
        let jpath = Filename.concat dir "db.bin.journal" in
        let size () =
          match read_file_opt jpath with Some j -> String.length j | None -> 0
        in
        let t = daemon_state ~publish_every:0 dir in
        (* The journal bytes the last PUBLISH appended: a torn write
           there means that PUBLISH never completed. *)
        let last_append = ref None and publishes = ref 0 in
        List.iter
          (fun step ->
            match step with
            | Publish ->
                let db = read_file_opt (Filename.concat dir "db.bin") in
                let lo = size () in
                apply_step t Publish;
                incr publishes;
                let lo =
                  if read_file_opt (Filename.concat dir "db.bin") = db then lo
                  else String.length (header_only (db_bytes dir))
                in
                last_append := Some (lo, size ())
            | step -> apply_step t step)
          steps;
        let torn =
          match (cut, !last_append) with
          | Some f, Some (lo, hi) when hi > lo ->
              Unix.truncate jpath (lo + int_of_float (f *. float_of_int (hi - lo)));
              true
          | _ -> false
        in
        let want = reference steps (if torn then !publishes - 1 else !publishes) in
        reopened dir = want);
    test_case "a stale journal is discarded, not applied twice" (fun () ->
        with_temp_dir @@ fun dir ->
        let jpath = Filename.concat dir "db.bin.journal" in
        let published, old_journal =
          run_daemon_state ~publish_every:0 dir (fun t ->
              ignore (local_ok t (Protocol.Train Label.Spam) (spam_mbox 3));
              ignore (local_ok t Protocol.Publish "");
              ignore (local_ok t (Protocol.Train Label.Ham) (ham_mbox 2));
              ignore (local_ok t Protocol.Publish "");
              (local_ok t Protocol.Classify recovery_eval, read_file jpath))
        in
        let db = db_bytes dir in
        (* A fold that crashed after renaming the new db, before
           resetting the journal: the old journal's ops already live in
           the db. *)
        Out_channel.with_open_bin jpath (fun oc ->
            Out_channel.output_string oc old_journal);
        check_bool "verify reports it stale" true
          (Filter.verify_journal (Filename.concat dir "db.bin") = `Stale);
        Alcotest.(check (pair string string))
          "no double apply" (published, db) (reopened dir);
        check_string "the open reset it" (header_only db) (read_file jpath));
    test_case "a torn final record is truncated to the last commit"
      (fun () ->
        with_temp_dir @@ fun dir ->
        let dbpath = Filename.concat dir "db.bin" in
        let jpath = dbpath ^ ".journal" in
        let t = daemon_state ~publish_every:0 dir in
        ignore (local_ok t (Protocol.Train Label.Spam) (spam_mbox 3));
        ignore (local_ok t Protocol.Publish "");
        ignore (local_ok t (Protocol.Train Label.Ham) (ham_mbox 2));
        ignore (local_ok t Protocol.Publish "");
        let published = local_ok t Protocol.Classify recovery_eval in
        let committed = read_file jpath in
        (* A whole record past the last commit (never acknowledged),
           then half of another. *)
        let uncommitted = Buffer.create 64 in
        Journal.add_record uncommitted ~user:""
          (Journal.of_ids `Train Label.Ham (Intern.intern_array [| "word0" |]));
        Out_channel.with_open_bin jpath (fun oc ->
            Out_channel.output_string oc
              (committed ^ Buffer.contents uncommitted ^ "T\t\ts\t1\tchea"));
        check_bool "verify reports a torn tail" true
          (match Filter.verify_journal dbpath with
          | `Torn (n, 1) -> n > 0
          | _ -> false);
        let loaded =
          match Filter.load_file dbpath with
          | Ok f -> Token_db.to_string (Filter.db f)
          | Error e -> Alcotest.fail e
        in
        let verdicts =
          run_daemon_state ~publish_every:0 dir (fun t ->
              check_string "the open truncated the tail" committed
                (read_file jpath);
              local_ok t Protocol.Classify recovery_eval)
        in
        check_string "the published state" published verdicts;
        check_string "load_file read the published state" loaded
          (read_file dbpath));
    test_case "a v3 db with no journal loads as before and writes none"
      (fun () ->
        with_temp_dir @@ fun dir ->
        let dbpath = Filename.concat dir "db.bin" in
        let jpath = dbpath ^ ".journal" in
        let published =
          run_daemon_state ~publish_every:0 dir (fun t ->
              ignore (local_ok t (Protocol.Train Label.Spam) (spam_mbox 3));
              ignore (local_ok t Protocol.Publish "");
              local_ok t Protocol.Classify recovery_eval)
        in
        let db = read_file dbpath in
        Sys.remove jpath;
        check_bool "verify: no journal" true
          (Filter.verify_journal dbpath = `Missing);
        let verdicts =
          run_daemon_state ~publish_every:0 dir (fun t ->
              ignore (local_ok t Protocol.Publish "");
              local_ok t Protocol.Classify recovery_eval)
        in
        check_string "the db's state" published verdicts;
        check_string "the db" db (read_file dbpath);
        check_bool "no journal without shared training" false
          (Sys.file_exists jpath));
    test_case "no db at all: nothing written until a PUBLISH" (fun () ->
        with_temp_dir @@ fun dir ->
        let dbpath = Filename.concat dir "db.bin" in
        let empty = Token_db.to_string (Token_db.create ()) in
        let verdicts =
          run_daemon_state ~publish_every:0 dir (fun t ->
              local_ok t Protocol.Classify recovery_eval)
        in
        check_bool "no db" false (Sys.file_exists dbpath);
        check_bool "no journal" false (Sys.file_exists (dbpath ^ ".journal"));
        run_daemon_state ~publish_every:0 dir (fun t ->
            check_string "verdicts of the empty filter" verdicts
              (local_ok t Protocol.Classify recovery_eval);
            ignore (local_ok t Protocol.Publish "");
            check_bool "an empty PUBLISH writes nothing" false
              (Sys.file_exists dbpath));
        check_string "the shutdown after a PUBLISH writes the db" empty
          (read_file dbpath);
        check_string "over a header-only journal" (header_only empty)
          (read_file (dbpath ^ ".journal")));
    test_case "load_file reads db + journal as published, writing nothing"
      (fun () ->
        with_temp_dir @@ fun dir ->
        let dbpath = Filename.concat dir "db.bin" in
        let jpath = dbpath ^ ".journal" in
        let loaded =
          run_daemon_state ~publish_every:0 dir (fun t ->
              ignore (local_ok t (Protocol.Train Label.Spam) (spam_mbox 3));
              ignore (local_ok t Protocol.Publish "");
              ignore (local_ok t (Protocol.Train Label.Ham) (ham_mbox 2));
              ignore (local_ok t (Protocol.Untrain Label.Spam) (spam_mbox 1));
              ignore (local_ok t Protocol.Publish "");
              (* Unpublished: not part of the published state. *)
              ignore (local_ok t (Protocol.Train Label.Ham) (ham_mbox 1));
              let files () =
                List.map
                  (fun p -> (read_file p, (Unix.stat p).Unix.st_mtime))
                  [ dbpath; jpath ]
              in
              let before = files () in
              check_bool "the journal holds ops" true
                (match Filter.verify_journal dbpath with
                | `Ok n -> n > 0
                | _ -> false);
              let loaded =
                match Filter.load_file dbpath with
                | Ok f -> Token_db.to_string (Filter.db f)
                | Error e -> Alcotest.fail e
              in
              check_bool "bytes and mtimes unchanged" true (before = files ());
              loaded)
        in
        check_string "the published state" (read_file dbpath) loaded);
  ]

(* ------------------------------------------------------------------ *)
(* STATS                                                               *)

(* STATS's lines split into its deterministic section and the rest,
   which the documented prefixes mark. *)
let stats_sections payload =
  List.partition
    (fun l ->
      not
        (List.exists
           (fun prefix -> String.starts_with ~prefix l)
           [ "degraded."; "drain."; "latency."; "shed."; "store."; "timeout." ]))
    (List.filter (( <> ) "") (String.split_on_char '\n' payload))

let line_name l = List.hd (String.split_on_char ' ' l)

(* One fixed stream of in-process requests, then a second STATS (so
   requests.stats reads 2) and the intern table's size: with a store,
   the TRAIN of ham, a CLASSIFY and the UNTRAIN address tenant
   "ivy".  Every verb runs, a chunk with a
   malformed header block rides along with TRAIN and CLASSIFY, an
   impossible UNTRAIN answers ERR, and one automatic publish fires. *)
let stats_after_stream ~store =
  with_daemon_state ~publish_every:5 ~store @@ fun t _dir ->
  let user = if store then Some "ivy" else None in
  let garbled = "From x@y Thu Jan  1 00:00:00 2004\n: no name\n\nbody\n" in
  ignore (local_ok t (Protocol.Train Label.Spam) (spam_mbox 4));
  ignore (local_ok t ?user (Protocol.Train Label.Ham) (ham_mbox 3 ^ garbled));
  ignore (local_ok t Protocol.Classify (spam_mbox 2 ^ ham_mbox 2 ^ garbled));
  ignore (local_ok t ?user Protocol.Classify (ham_mbox 1));
  ignore (local_ok t ?user (Protocol.Untrain Label.Ham) (ham_mbox 1));
  (match local t (Protocol.Untrain Label.Spam) (ham_mbox 1) with
  | Protocol.Err _ -> ()
  | _ -> Alcotest.fail "an UNTRAIN of never-trained mail must answer ERR");
  List.iter
    (fun verb -> ignore (local_ok t verb ""))
    Protocol.[ Publish; Ping; Health; Stats ];
  (stats t, Intern.size ())

let stats_tests =
  let golden ~store det_lines extra_names =
    let payload, intern_size = stats_after_stream ~store in
    let det, rest = stats_sections payload in
    check_string "deterministic section"
      (String.concat "\n"
         (List.map
            (fun l ->
              if l = "intern.size" then Printf.sprintf "intern.size %d" intern_size
              else l)
            det_lines))
      (String.concat "\n" det);
    check_string "the deterministic section comes first"
      (String.concat "\n" (det @ rest))
      (String.concat "\n"
         (List.filter (( <> ) "") (String.split_on_char '\n' payload)));
    Alcotest.(check (list string))
      "nondeterministic names"
      (List.sort compare
         ([
            "degraded.entered"; "degraded.recovered"; "drain.aborted";
            "shed.connections"; "shed.requests"; "timeout.idle"; "timeout.read";
            "timeout.write";
          ]
         @ List.map (( ^ ) "latency.")
             [ "classify"; "health"; "ping"; "publish"; "stats"; "train"; "untrain" ]
         @ extra_names))
      (List.sort compare (List.map line_name rest))
  in
  [
    test_case "STATS after a fixed stream, shared filter" (fun () ->
        golden ~store:false
          [
            "body.bytes 1458"; "classify.malformed 1"; "classify.messages 5";
            "connections 0"; "intern.size"; "io.errors 0"; "protocol.errors 0";
            "publish.seq 2"; "requests.classify 2"; "requests.health 1";
            "requests.ping 1"; "requests.publish 1"; "requests.stats 2";
            "requests.train 2"; "requests.untrain 2"; "train.malformed 1";
            "train.messages 7"; "train.pending 0"; "untrain.malformed 0";
            "untrain.messages 1"; "verdicts.ham 3"; "verdicts.spam 2";
            "verdicts.unsure 0";
          ]
          []);
    test_case "STATS after a fixed stream, tenant store" (fun () ->
        golden ~store:true
          [
            "body.bytes 1458"; "classify.malformed 1"; "classify.messages 5";
            "connections 0"; "intern.size"; "io.errors 0"; "protocol.errors 0";
            "publish.seq 2"; "requests.classify 2"; "requests.health 1";
            "requests.ping 1"; "requests.publish 1"; "requests.stats 2";
            "requests.train 2"; "requests.untrain 2"; "train.malformed 1";
            "train.messages 7"; "train.pending 0"; "untrain.malformed 0";
            "untrain.messages 1"; "verdicts.ham 1"; "verdicts.spam 2";
            "verdicts.unsure 2";
          ]
          [
            "store.cached"; "store.compactions"; "store.evictions";
            "store.journal_bytes"; "store.journal_ops"; "store.overlay_hits";
            "store.overlay_misses";
          ]);
    test_case "each STATS section is in name order" (fun () ->
        let payload, _ = stats_after_stream ~store:true in
        let det, rest = stats_sections payload in
        List.iter
          (fun (what, lines) ->
            let names = List.map line_name lines in
            Alcotest.(check (list string)) what (List.sort compare names) names)
          [ ("deterministic", det); ("nondeterministic", rest) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Frames read in place                                                *)

let classify_frame body =
  Protocol.render_request { Protocol.verb = Protocol.Classify; body; user = None }

(* [n] bytes of every value, in no repeating pattern a misplaced copy
   could pass. *)
let patterned ?(seed = 0) n =
  String.init n (fun i -> Char.chr (((i * 7) + (i lsr 9) + seed) land 0xff))

let expect_frame what reader want =
  match Protocol.recv_frame reader with
  | `Frame (_, _, { Io.buf; off; len }) ->
      check_int (what ^ ": length") (String.length want) len;
      check_bool (what ^ ": bytes") true (String.sub buf off len = want)
  | `Eof -> Alcotest.failf "%s: EOF" what
  | `Error e -> Alcotest.failf "%s: %s" what e

let with_faults spec f =
  match Fault.configure spec with
  | Error e -> Alcotest.fail e
  | Ok () -> Fun.protect ~finally:Fault.disable f

let frame_tests =
  [
    test_case "a body past 64 KiB is read in place, then the next frame"
      (fun () ->
        let body = patterned 200_000 in
        with_reader_of_string (classify_frame body ^ Protocol.render_request ping)
        @@ fun reader ->
        check_int "starts at 64 KiB" 65_536 (Io.capacity reader);
        expect_frame "large body" reader body;
        check_bool "grown to hold it" true (Io.capacity reader >= 200_000);
        match Protocol.recv_frame reader with
        | `Frame (Protocol.Ping, None, { Io.len = 0; _ }) -> ()
        | _ -> Alcotest.fail "the PING after it");
    test_case "a body in 1-byte writes under an armed read deadline" (fun () ->
        let body = patterned 70_000 in
        let wire = classify_frame body in
        let r, w = Unix.pipe ~cloexec:true () in
        let writer =
          Domain.spawn (fun () ->
              let b = Bytes.create 1 in
              String.iter
                (fun c ->
                  Bytes.set b 0 c;
                  ignore (Unix.write w b 0 1))
                wire;
              Unix.close w)
        in
        Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
        let reader = Io.reader ~buf_size:16 r in
        Io.set_deadline reader (Some (Io.monotonic_s () +. 60.0));
        expect_frame "trickled body" reader body;
        check_bool "then end of stream" true (Protocol.recv_frame reader = `Eof);
        Domain.join writer);
    test_case "a serve.read fault mid-body" (fun () ->
        (* A 64-byte buffer holds the head and 18 body bytes, so the
           second refill is the first one inside the body. *)
        let body = patterned 1_000 in
        let wire = classify_frame body in
        (* Transient: retried inside the read, the frame arrives whole. *)
        with_faults "serve.read:transient@2+3" (fun () ->
            let path = Filename.temp_file "spamlab_serve" ".bin" in
            Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
            Out_channel.with_open_bin path (fun oc -> output_string oc wire);
            let fd = Unix.openfile path [ O_RDONLY ] 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            expect_frame "after transient faults"
              (Io.reader ~site:"serve.read" ~buf_size:64 fd) body);
        (* Fatal, through the daemon's connection path: one ERR, the
           connection dropped, nothing executed. *)
        with_temp_dir @@ fun dir ->
        let path = Filename.concat dir "wire.bin" and out = Filename.concat dir "out.bin" in
        Out_channel.with_open_bin path (fun oc -> output_string oc wire);
        run_daemon_state dir @@ fun t ->
        let fd = Unix.openfile path [ O_RDONLY ] 0 in
        let ofd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
        let outcome =
          Fun.protect
            ~finally:(fun () ->
              Unix.close fd;
              Unix.close ofd)
          @@ fun () ->
          with_faults "serve.read:fatal@2" (fun () ->
              Daemon.serve_frame t (Io.reader ~site:"serve.read" ~buf_size:64 fd) ofd
                ~shed:false ~now:(Io.monotonic_s ()))
        in
        check_bool "connection closed" true (outcome = `Close);
        check_string "one ERR" "SPAMLAB/1.0 ERR injected read fault\r\n" (read_file out);
        let stats = stats t in
        check_bool "nothing executed" true (contains stats "requests.classify 0\n");
        check_bool "counted as an I/O error" true (contains stats "io.errors 1\n"));
    qtest ~count:25 "pipelined frames up to 2.5 MiB read in place through grows and shrinks"
      QCheck2.Gen.(pair (oneofl [ 16; 4_096; 65_536 ]) (list_size (int_range 1 4) (int_range 0 2_600_000)))
      (fun (buf_size, sizes) ->
        let bodies = List.mapi (fun seed n -> patterned ~seed n) sizes in
        let path = Filename.temp_file "spamlab_serve" ".bin" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        Out_channel.with_open_bin path (fun oc ->
            List.iter (fun b -> output_string oc (classify_frame b)) bodies);
        let fd = Unix.openfile path [ O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let reader = Io.reader ~buf_size fd in
        List.for_all
          (fun body ->
            (match Protocol.recv_frame reader with
            | `Frame (_, _, { Io.buf; off; len }) -> String.sub buf off len = body
            | _ -> false)
            (* After its frame, a buffer past 1 MiB holds no more than
               its base size or what is buffered beyond the frame. *)
            && Io.capacity reader <= max (1 lsl 20) (max buf_size (Io.buffered reader)))
          bodies
        && Protocol.recv_frame reader = `Eof);
    test_case "a grown buffer shrinks back after its frame" (fun () ->
        let huge = patterned (2 * 1024 * 1024) and mid = patterned (512 * 1024) in
        let wire = classify_frame huge ^ classify_frame mid ^ classify_frame "tail" in
        with_reader_of_string wire @@ fun reader ->
        let first =
          match Protocol.recv_frame reader with
          | `Frame (_, _, slice) -> slice
          | _ -> Alcotest.fail "the 2 MiB frame"
        in
        check_int "back to 64 KiB once the 2 MiB slice is taken" 65_536 (Io.capacity reader);
        expect_frame "512 KiB frame" reader mid;
        check_bool "grown, and kept under 1 MiB" true
          (Io.capacity reader >= 512 * 1024 && Io.capacity reader <= 1024 * 1024);
        expect_frame "the next frame" reader "tail";
        (* The 2 MiB slice lives in the dropped buffer, which no later
           read touched. *)
        check_bool "the first slice is intact" true
          (String.sub first.Io.buf first.Io.off first.Io.len = huge));
  ]

(* ------------------------------------------------------------------ *)
(* What a request allocates                                            *)

let generated =
  let module Generator = Spamlab_corpus.Generator in
  let config =
    Generator.default_config ~seed:31
      ~sizes:
        {
          Spamlab_corpus.Vocabulary.shared = 300;
          ham_specific = 200;
          spam_specific = 150;
          colloquial = 100;
          rare_standard = 400;
          rare_nonstandard = 400;
        }
      ()
  in
  fun n ->
    let rng = Spamlab_stats.Rng.create n in
    if n mod 2 = 0 then Generator.ham config rng else Generator.spam config rng

let alloc_tests =
  [
    test_case "a 64-message CLASSIFY through the connection path adds no major-heap words"
      (fun () ->
        with_temp_dir @@ fun dir ->
        run_daemon_state ~publish_every:0 dir @@ fun t ->
        ignore (local_ok t (Protocol.Train Label.Ham) (mbox (List.init 150 (fun i -> generated (2 * i)))));
        ignore
          (local_ok t (Protocol.Train Label.Spam) (mbox (List.init 150 (fun i -> generated ((2 * i) + 1)))));
        ignore (local_ok t Protocol.Publish "");
        let body = mbox (List.init 64 (fun i -> generated (1_000 + i))) in
        let runs = 5 in
        let wire = Filename.concat dir "wire.bin" and out = Filename.concat dir "out.bin" in
        Out_channel.with_open_bin wire (fun oc ->
            for _ = 0 to runs do
              output_string oc (classify_frame body)
            done);
        let fd = Unix.openfile wire [ O_RDONLY ] 0 in
        let ofd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
        let least =
          Fun.protect
            ~finally:(fun () ->
              Unix.close fd;
              Unix.close ofd)
          @@ fun () ->
          let reader = Io.reader ~site:"serve.read" fd in
          let serve () =
            check_bool "served" true
              (Daemon.serve_frame t reader ofd ~shed:false ~now:(Io.monotonic_s ()) = `Keep)
          in
          (* The warm-up grows the reader's buffer to the frame and the
             per-domain scratch to the messages, and fills the cache. *)
          serve ();
          (* The least of several runs, each from an empty minor heap,
             so that only what the request itself puts on the major
             heap counts: [Gc.counters] is this domain's, and counts a
             block the moment it is allocated or promoted. *)
          List.fold_left Float.min infinity
            (List.init runs (fun _ ->
                 Gc.minor ();
                 let _, _, major = Gc.counters () in
                 serve ();
                 let _, _, major' = Gc.counters () in
                 major' -. major))
        in
        Alcotest.(check (float 0.)) "major-heap words" 0. least;
        let payload = local_ok t Protocol.Classify body in
        check_int "64 verdicts" 64 (List.length (String.split_on_char '\n' payload) - 1);
        let want = Protocol.render_response (Protocol.Ok payload) in
        check_string "every response as handle_request answers"
          (String.concat "" (List.init (runs + 1) (fun _ -> want)))
          (read_file out));
  ]

let () =
  Alcotest.run "serve"
    [
      ("io", io_tests);
      ("protocol", protocol_tests);
      ("connection", connection_tests);
      ("frame", frame_tests);
      ("allocation", alloc_tests);
      ("e2e", e2e_tests);
      ("write path", write_path_tests);
      ("publish", publish_tests);
      ("recovery", recovery_tests);
      ("stats", stats_tests);
    ]

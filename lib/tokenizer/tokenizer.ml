module Header = Spamlab_email.Header
module Message = Spamlab_email.Message

module type S = sig
  val name : string

  val iter_spans :
    Header.t ->
    string ->
    int ->
    int ->
    span:(string -> int -> int -> unit) ->
    token:(string -> unit) ->
    unit
end

type t = (module S)

let name (module T : S) = T.name

let iter_spans (module T : S) headers buf off len ~span ~token =
  T.iter_spans headers buf off len ~span ~token

let iter_message (module T : S) msg ~span ~token =
  let body = Message.body msg in
  T.iter_spans (Message.headers msg) body 0 (String.length body) ~span ~token

(* The string API, for every tokenizer at once: a slice becomes its
   string, a meta token passes through.  No interning: string feature
   extraction must not grow the intern table. *)
let iter_tokens t msg f =
  iter_message t msg ~span:(fun buf off len -> f (String.sub buf off len)) ~token:f

let tokenize t msg =
  let acc = ref [] in
  iter_tokens t msg (fun tok -> acc := tok :: !acc);
  List.rev !acc

(* Per-domain scratch: the token stream is pushed into a reusable
   growable buffer, then sorted and deduplicated in place — no
   intermediate list cells.  One buffer per domain keeps the path safe
   under the parallel pool without locking. *)
let scratch : string array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Array.make 1024 ""))

let unique_tokens t msg =
  let buf = Domain.DLS.get scratch in
  let n = ref 0 in
  iter_tokens t msg (fun tok ->
      let arr = !buf in
      let cap = Array.length arr in
      if !n = cap then begin
        let bigger = Array.make (2 * cap) "" in
        Array.blit arr 0 bigger 0 cap;
        buf := bigger
      end;
      !buf.(!n) <- tok;
      incr n);
  let raw = !n in
  if raw = 0 then [||]
  else begin
    let arr = Array.sub !buf 0 raw in
    Array.sort String.compare arr;
    let w = ref 1 in
    for i = 1 to raw - 1 do
      if not (String.equal arr.(i) arr.(!w - 1)) then begin
        arr.(!w) <- arr.(i);
        incr w
      end
    done;
    if !w = raw then arr else Array.sub arr 0 !w
  end

let spambayes : t = (module Spambayes_tok)
let bogofilter : t = (module Bogofilter_tok)
let spamassassin : t = (module Spamassassin_tok)

let all =
  [ (Spambayes_tok.name, spambayes);
    (Bogofilter_tok.name, bogofilter);
    (Spamassassin_tok.name, spamassassin) ]

let find name = List.assoc_opt name all

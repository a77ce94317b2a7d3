(** Email addresses of the shape [Display Name <local@domain>] or a bare
    [local@domain].  A deliberately small model: enough for header
    generation and tokenization, not a full RFC 5322 grammar. *)

type t = {
  display_name : string option;
  local : string;
  domain : string;
}

val make : ?display_name:string -> local:string -> domain:string -> unit -> t
(** @raise Invalid_argument if [local] or [domain] is empty or contains
    whitespace, ['@'], ['<'] or ['>']. *)

val of_string : string -> (t, string) result
(** Parses ["Name <a@b>"], ["<a@b>"] or ["a@b"]; trims surrounding
    whitespace. *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)

type t = {
  display_name : string option;
  local : string;
  domain : string;
}

let allowed = function ' ' | '\t' | '\n' | '\r' | '@' | '<' | '>' -> false | _ -> true

let valid_atom s = String.length s > 0 && String.for_all allowed s

let make ?display_name ~local ~domain () =
  if not (valid_atom local) then invalid_arg "Address.make: bad local part";
  if not (valid_atom domain) then invalid_arg "Address.make: bad domain";
  { display_name; local; domain }

let split_spec spec =
  match String.index_opt spec '@' with
  | None -> Error (Printf.sprintf "missing '@' in %S" spec)
  | Some i ->
      let local = String.sub spec 0 i in
      let domain = String.sub spec (i + 1) (String.length spec - i - 1) in
      if valid_atom local && valid_atom domain then Ok (local, domain)
      else Error (Printf.sprintf "malformed address spec %S" spec)

let of_string s =
  let s = String.trim s in
  match (String.index_opt s '<', String.rindex_opt s '>') with
  | Some lt, Some gt when lt < gt ->
      let name = String.trim (String.sub s 0 lt) in
      let spec = String.sub s (lt + 1) (gt - lt - 1) in
      Result.map
        (fun (local, domain) ->
          let display_name = if name = "" then None else Some name in
          { display_name; local; domain })
        (split_spec spec)
  | Some _, _ | _, Some _ -> Error (Printf.sprintf "unbalanced angle brackets in %S" s)
  | None, None ->
      Result.map
        (fun (local, domain) -> { display_name = None; local; domain })
        (split_spec s)

let address_spec t = t.local ^ "@" ^ t.domain

let to_string t =
  match t.display_name with
  | None -> address_spec t
  | Some name -> Printf.sprintf "%s <%s>" name (address_spec t)

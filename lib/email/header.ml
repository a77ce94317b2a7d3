type t = (string * string) list
(* Stored in field order; names keep their original spelling, lookups
   compare case-insensitively. *)

let normalize = String.lowercase_ascii

let empty = []

let of_list fields = fields

let to_list t = t

let add t name value = t @ [ (name, value) ]

(* Case-insensitive name equality without lowercasing either side:
   lookups run per message in every tokenizer, so they allocate
   nothing beyond their result. *)
let same_name a b =
  let n = String.length a in
  n = String.length b
  &&
  let i = ref 0 in
  while
    !i < n
    && Char.lowercase_ascii (String.unsafe_get a !i)
       = Char.lowercase_ascii (String.unsafe_get b !i)
  do
    incr i
  done;
  !i = n

let rec find t name =
  match t with
  | [] -> None
  | (n, v) :: rest -> if same_name n name then Some v else find rest name

let rec find_all t name =
  match t with
  | [] -> []
  | (n, v) :: rest ->
      if same_name n name then v :: find_all rest name else find_all rest name

let mem t name = Option.is_some (find t name)

let remove t name = List.filter (fun (n, _) -> not (same_name n name)) t

let replace t name value = add (remove t name) name value

let length = List.length

let is_empty t = t = []

let iter f t = List.iter (fun (n, v) -> f n v) t

let fold f init t = List.fold_left (fun acc (n, v) -> f acc n v) init t

let canonical_name name =
  String.concat "-"
    (List.map String.capitalize_ascii
       (String.split_on_char '-' (normalize name)))

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> same_name n1 n2 && v1 = v2)
       a b

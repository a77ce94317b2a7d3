type t = { headers : Header.t; body : string }

let make ?(headers = Header.empty) body = { headers; body }

let headers t = t.headers
let body t = t.body

let subject t = Header.find t.headers "subject"

let with_body t body = { t with body }

let size_bytes t =
  Header.fold
    (fun acc n v -> acc + String.length n + 2 + String.length v + 2)
    (2 + String.length t.body)
    t.headers

let equal a b = Header.equal a.headers b.headers && a.body = b.body

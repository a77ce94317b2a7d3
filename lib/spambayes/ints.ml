module A = Bigarray.Array1

type t = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let make n x =
  let a = A.create Bigarray.int Bigarray.c_layout n in
  A.fill a x;
  a

let empty = make 0 0

let copy (a : t) =
  if A.dim a = 0 then empty
  else
    let b = A.create Bigarray.int Bigarray.c_layout (A.dim a) in
    A.blit a b;
    b

type t = { mutable state : int64; seed : int }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output mixing (variant 13 of Stafford's mixers). *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = Int64.of_int seed; seed }

let copy t = { t with state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s; seed = t.seed }

(* FNV-1a over the name, folded into a fresh state derived from the seed
   only.  Independent of the parent's consumption position. *)
let split_named t name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  let base = mix64 (Int64.add (Int64.of_int t.seed) golden_gamma) in
  { state = mix64 (Int64.logxor base !h); seed = t.seed }

(* Child keyed by the parent's current position and an index, without
   advancing the parent.  Used to pre-split one independent stream per
   array element (corpus messages) so element construction can fan over
   domains while remaining a pure function of the parent's state. *)
let split_indexed t i =
  let base = mix64 (Int64.add t.state golden_gamma) in
  let ih = mix64 (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
  { state = mix64 (Int64.logxor base ih); seed = t.seed }

let float t =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for any
     bound below 2^24, and all laboratory bounds are small. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)


let bernoulli t p = float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then
    invalid_arg "Rng.sample_without_replacement: k out of range";
  (* Partial Fisher-Yates on a copy of the index space. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.init k (fun i -> arr.(idx.(i)))

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

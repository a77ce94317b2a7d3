module M = Map.Make (String)

type counter = int Atomic.t

(* Bucket [i] counts the samples with [2^(i-1) <= us < 2^i] (bucket 0
   counts 0); 63 buckets cover every non-negative int. *)
type histogram = { buckets : int Atomic.t array; max_us : int Atomic.t }

type kind = Counter of counter | Gauge of (unit -> int) | Histogram of histogram
type entry = { deterministic : bool; kind : kind }
type t = entry M.t Atomic.t

let create () = Atomic.make M.empty

(* [M.find] rather than [M.find_opt]: a hit allocates no option. *)
let rec register t ~deterministic name make =
  let m = Atomic.get t in
  match M.find name m with
  | e -> e
  | exception Not_found ->
      let e = { deterministic; kind = make () } in
      if Atomic.compare_and_set t m (M.add name e m) then e
      else register t ~deterministic name make

let taken name = invalid_arg ("Metrics: " ^ name ^ " is already registered")

let counter t ?(deterministic = true) name =
  match register t ~deterministic name (fun () -> Counter (Atomic.make 0)) with
  | { kind = Counter c; _ } -> c
  | _ -> taken name

let add c n = ignore (Atomic.fetch_and_add c n)

let gauge t ?(deterministic = true) name f =
  match register t ~deterministic name (fun () -> Gauge f) with
  | { kind = Gauge g; _ } when g == f -> ()
  | _ -> taken name

let histogram t ?(deterministic = true) name =
  let make () =
    Histogram
      { buckets = Array.init 63 (fun _ -> Atomic.make 0); max_us = Atomic.make 0 }
  in
  match register t ~deterministic name make with
  | { kind = Histogram h; _ } -> h
  | _ -> taken name

(* Top-level: without flambda a local [let rec] closure allocates. *)
let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1)

let rec raise_max m us =
  let cur = Atomic.get m in
  if us > cur && not (Atomic.compare_and_set m cur us) then raise_max m us

(* The maximum moves first, so a reader never sees a counted sample
   above it. *)
let observe h us =
  let us = max 0 us in
  raise_max h.max_us us;
  Atomic.incr h.buckets.(bits us 0)

(* The upper bound of the bucket holding the q-quantile sample of one
   read of the buckets, capped at [max_us]. *)
let bound counts max_us q =
  let count = Array.fold_left ( + ) 0 counts in
  if count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let rec go i seen =
      if i >= Array.length counts then max_us
      else
        let seen = seen + counts.(i) in
        if seen >= rank then if i = 0 then 0 else (1 lsl i) - 1
        else go (i + 1) seen
    in
    min (go 0 0) max_us
  end

let quantile h q = bound (Array.map Atomic.get h.buckets) (Atomic.get h.max_us) q

let value t name =
  match M.find name (Atomic.get t) with
  | { kind = Counter c; _ } -> Atomic.get c
  | { kind = Gauge f; _ } -> f ()
  | { kind = Histogram h; _ } ->
      Array.fold_left (fun n b -> n + Atomic.get b) 0 h.buckets
  | exception Not_found -> 0

let counters t =
  M.fold
    (fun name e acc ->
      match e.kind with
      | Counter c when Atomic.get c <> 0 -> (name, Atomic.get c) :: acc
      | _ -> acc)
    (Atomic.get t) []
  |> List.rev

let reset t =
  M.iter
    (fun _ e ->
      match e.kind with
      | Counter c -> Atomic.set c 0
      | Histogram h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.max_us 0
      | Gauge _ -> ())
    (Atomic.get t)

let render_line b (name, e) =
  match e.kind with
  | Counter c -> Printf.bprintf b "%s %d\n" name (Atomic.get c)
  | Gauge f -> Printf.bprintf b "%s %d\n" name (f ())
  | Histogram h ->
      let counts = Array.map Atomic.get h.buckets
      and max_us = Atomic.get h.max_us in
      let count = Array.fold_left ( + ) 0 counts in
      if count > 0 then
        Printf.bprintf b "%s count=%d p50us<=%d p99us<=%d maxus=%d\n" name count
          (bound counts max_us 0.50) (bound counts max_us 0.99) max_us

let render ts =
  let all =
    List.concat_map (fun t -> M.bindings (Atomic.get t)) ts
    |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun deterministic ->
      List.iter
        (fun ((_, e) as m) -> if e.deterministic = deterministic then render_line b m)
        all)
    [ true; false ];
  Buffer.contents b

open Spamlab_stats

type sizes = {
  shared : int;
  ham_specific : int;
  spam_specific : int;
  colloquial : int;
  rare_standard : int;
  rare_nonstandard : int;
}

let default_sizes =
  {
    shared = 8000;
    ham_specific = 6000;
    spam_specific = 4000;
    colloquial = 3000;
    rare_standard = 60_000;
    rare_nonstandard = 180_000;
  }

type t = {
  shared : string array;
  ham_specific : string array;
  spam_specific : string array;
  colloquial : string array;
  rare_standard : string array;
  rare_nonstandard : string array;
  filler_start : int;
}

let create ?(sizes = default_sizes) ~seed () =
  if sizes.shared <= 0 then
    invalid_arg "Vocabulary.create: shared size must be positive";
  if
    sizes.ham_specific < 0 || sizes.spam_specific < 0 || sizes.colloquial < 0
    || sizes.rare_standard < 0 || sizes.rare_nonstandard < 0
  then invalid_arg "Vocabulary.create: negative category size";
  let shared = Wordgen.words 0 sizes.shared in
  let ham_specific = Wordgen.words sizes.shared sizes.ham_specific in
  let spam_specific =
    Wordgen.words (sizes.shared + sizes.ham_specific) sizes.spam_specific
  in
  let standard_end = sizes.shared + sizes.ham_specific + sizes.spam_specific in
  let rare_standard = Wordgen.words standard_end sizes.rare_standard in
  let rare_nonstandard =
    Wordgen.words (standard_end + sizes.rare_standard) sizes.rare_nonstandard
  in
  (* Colloquial: half fresh slang words (from their own index range, so
     they are never dictionary words), half misspellings of common shared
     words.  Membership is deduplicated against everything above. *)
  let slang_count = sizes.colloquial / 2 in
  let slang_start = standard_end + sizes.rare_standard + sizes.rare_nonstandard in
  let slang = Wordgen.words slang_start slang_count in
  let filler_start = slang_start + slang_count in
  let rng = Rng.split_named (Rng.create seed) "vocabulary-misspellings" in
  let seen = Hashtbl.create (4 * (sizes.colloquial + 1)) in
  Array.iter (fun w -> Hashtbl.replace seen w ()) shared;
  Array.iter (fun w -> Hashtbl.replace seen w ()) ham_specific;
  Array.iter (fun w -> Hashtbl.replace seen w ()) spam_specific;
  Array.iter (fun w -> Hashtbl.replace seen w ()) rare_standard;
  Array.iter (fun w -> Hashtbl.replace seen w ()) rare_nonstandard;
  Array.iter (fun w -> Hashtbl.replace seen w ()) slang;
  let misspellings = ref [] in
  let needed = sizes.colloquial - slang_count in
  let count = ref 0 in
  while !count < needed do
    (* Misspell frequent (low-rank) shared words: those are the ones a
       Usenet corpus actually contains corrupted forms of. *)
    let source = shared.(Rng.int rng (min 2000 (Array.length shared))) in
    let candidate = Wordgen.misspell rng source in
    if not (Hashtbl.mem seen candidate) then begin
      Hashtbl.replace seen candidate ();
      misspellings := candidate :: !misspellings;
      incr count
    end
  done;
  let colloquial =
    Array.append slang (Array.of_list (List.rev !misspellings))
  in
  {
    shared;
    ham_specific;
    spam_specific;
    colloquial;
    rare_standard;
    rare_nonstandard;
    filler_start;
  }

let standard_words t =
  Array.concat [ t.shared; t.ham_specific; t.spam_specific ]

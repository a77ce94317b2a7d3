open Spamlab_stats
module Dataset = Spamlab_corpus.Dataset
module Generator = Spamlab_corpus.Generator
module Filter = Spamlab_spambayes.Filter
module Intern = Spamlab_spambayes.Intern
module Prob_cache = Spamlab_spambayes.Prob_cache
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Message = Spamlab_email.Message
module Attack = Spamlab_core.Focused_attack

type outcome = { ham_pct : float; unsure_pct : float; spam_pct : float }

type setup = {
  base : Filter.t;
  header_pool : Spamlab_email.Header.t array;
}

(* One repetition's fixed environment: a clean trained inbox and the
   spam headers the attacker can steal. *)
let make_setup lab ~name (params : Params.focused) =
  let messages =
    Lab.corpus_messages lab ~name ~size:params.inbox_size
      ~spam_fraction:params.spam_prevalence
  in
  let examples = Dataset.of_labeled (Lab.tokenizer lab) messages in
  let base = Poison.base_filter (Lab.tokenizer lab) examples in
  let header_pool =
    Array.map Message.headers (Spamlab_corpus.Trec.spam_only messages)
  in
  { base; header_pool }

let attack_verdict setup rng ~target ~p ~count =
  let plan =
    Attack.craft rng ~target ~p ~count ~header_pool:setup.header_pool
  in
  let filter = Filter.copy setup.base in
  Attack.train filter plan;
  ((Filter.classify filter target).Classify.verdict, plan, filter)

let outcome_of_counts ham unsure spam =
  let total = float_of_int (max 1 (ham + unsure + spam)) in
  {
    ham_pct = 100.0 *. float_of_int ham /. total;
    unsure_pct = 100.0 *. float_of_int unsure /. total;
    spam_pct = 100.0 *. float_of_int spam /. total;
  }

(* Shared driver: for each x in xs, classify every (rep, target) pair
   under the attack given by [attack_of x] and count verdicts.

   Two fan-outs over the domain pool: the per-repetition clean inboxes
   (corpus generation plus training — the expensive part), then the
   (repetition, target) grid.  Every task derives its own named
   randomness stream, so the verdicts — and hence the counts, summed
   after the join — are identical at any jobs setting. *)
let sweep lab (params : Params.focused) ~stream_name ~xs ~attack_of =
  let pool = Lab.pool lab in
  (* Per-repetition environments are built by the [prepare] hook, which
     under a checkpoint sees only the (rep, target) pairs that still
     need computing — so a mostly-restored resume trains only the
     inboxes it actually touches.  Checkpoint-free runs prepare every
     repetition, exactly as before. *)
  let setups = Array.make params.repetitions None in
  let prepare pairs =
    let needed =
      Array.to_list (Array.map fst pairs)
      |> List.sort_uniq compare
      |> List.filter (fun rep -> setups.(rep) = None)
      |> Array.of_list
    in
    let built =
      Spamlab_parallel.Pool.map_array pool
        (fun rep ->
          Spamlab_obs.Obs.span "focused.setup" @@ fun () ->
          make_setup lab
            ~name:(Printf.sprintf "%s/rep-%d/corpus" stream_name rep)
            params)
        needed
    in
    Array.iteri (fun j rep -> setups.(rep) <- Some built.(j)) needed
  in
  let pairs =
    Array.init
      (params.repetitions * params.targets)
      (fun i -> (i / params.targets, i mod params.targets))
  in
  (* One checkpoint value per pair: the verdict at each x, one
     character each. *)
  let encode verdicts =
    String.concat ""
      (List.map
         (function
           | Label.Ham_v -> "h" | Label.Unsure_v -> "u" | Label.Spam_v -> "s")
         verdicts)
  in
  let nxs = List.length xs in
  let decode _pair s =
    if String.length s <> nxs then None
    else
      String.fold_right
        (fun c acc ->
          Option.bind acc (fun vs ->
              match c with
              | 'h' -> Some (Label.Ham_v :: vs)
              | 'u' -> Some (Label.Unsure_v :: vs)
              | 's' -> Some (Label.Spam_v :: vs)
              | _ -> None))
        s (Some [])
  in
  let verdicts =
    Lab.checkpointed_map lab ~stage:stream_name ~prepare ~encode ~decode
      (fun (rep, target_index) ->
        Spamlab_obs.Obs.span "focused.cell" @@ fun () ->
        let rng =
          Lab.rng lab
            (Printf.sprintf "%s/rep-%d/target-%d" stream_name rep target_index)
        in
        let setup =
          match setups.(rep) with Some s -> s | None -> assert false
        in
        let target = Generator.ham (Lab.config lab) rng in
        List.map
          (fun x ->
            let p, count = attack_of x in
            let verdict, _, _ = attack_verdict setup rng ~target ~p ~count in
            verdict)
          xs)
      pairs
  in
  List.mapi
    (fun i x ->
      let ham = ref 0 and unsure = ref 0 and spam = ref 0 in
      Array.iter
        (fun per_x ->
          match List.nth per_x i with
          | Label.Ham_v -> incr ham
          | Label.Unsure_v -> incr unsure
          | Label.Spam_v -> incr spam)
        verdicts;
      (x, outcome_of_counts !ham !unsure !spam))
    xs

let probability_sweep lab (params : Params.focused) =
  sweep lab params ~stream_name:"focused-probability"
    ~xs:params.guess_probabilities
    ~attack_of:(fun p -> (p, params.attack_count))

let volume_sweep lab (params : Params.focused) =
  sweep lab params ~stream_name:"focused-volume" ~xs:params.fractions
    ~attack_of:(fun fraction ->
      ( params.fixed_probability,
        Poison.attack_count ~train_size:params.inbox_size ~fraction ))

type token_shift = {
  token : string;
  before : float;
  after : float;
  included : bool;
}

type shift_report = {
  target_verdict_before : Label.verdict;
  target_verdict_after : Label.verdict;
  indicator_before : float;
  indicator_after : float;
  shifts : token_shift list;
}

let token_shifts lab (params : Params.focused) =
  let rng = Lab.rng lab "focused-token-shift" in
  let setup = make_setup lab ~name:"focused-token-shift/corpus" params in
  let wanted = [ Label.Spam_v; Label.Unsure_v; Label.Ham_v ] in
  let found : (Label.verdict * shift_report) list ref = ref [] in
  let attempts = max 20 (4 * params.targets) in
  let attempt = ref 0 in
  while
    List.length !found < List.length wanted && !attempt < attempts
  do
    incr attempt;
    let target = Generator.ham (Lab.config lab) rng in
    let verdict, plan, poisoned_filter =
      attack_verdict setup rng ~target ~p:params.fixed_probability
        ~count:params.attack_count
    in
    if
      List.mem verdict wanted
      && not (List.mem_assoc verdict !found)
    then begin
      let before_result = Filter.classify setup.base target in
      let after_result = Filter.classify poisoned_filter target in
      let guessed = Hashtbl.create 64 in
      List.iter (fun w -> Hashtbl.replace guessed w ()) plan.Attack.guessed;
      (* f(w) for the report, by string lookup: a token no table
         holds scores the prior. *)
      let score filter token =
        let options = Filter.options filter in
        match Intern.find token with
        | Some id -> Prob_cache.smoothed_id options (Filter.db filter) id
        | None -> options.Spamlab_spambayes.Options.unknown_word_prob
      in
      let shifts =
        Array.to_list (Filter.features setup.base target)
        |> List.map (fun token ->
               {
                 token;
                 before = score setup.base token;
                 after = score poisoned_filter token;
                 included = Hashtbl.mem guessed token;
               })
      in
      let report =
        {
          target_verdict_before = before_result.Classify.verdict;
          target_verdict_after = after_result.Classify.verdict;
          indicator_before = before_result.Classify.indicator;
          indicator_after = after_result.Classify.indicator;
          shifts;
        }
      in
      found := (verdict, report) :: !found
    end
  done;
  List.filter_map (fun v -> List.assoc_opt v !found) wanted

let render_outcomes title xs_label rows =
  Plot.stacked_bars ~title ~segments:[ "spam"; "unsure"; "ham" ]
    (List.map
       (fun (x, o) ->
         ( Printf.sprintf "%s=%.2f" xs_label x,
           [ o.spam_pct; o.unsure_pct; o.ham_pct ] ))
       rows)

let render_probability_sweep rows =
  let table =
    Table.render
      ~header:[ "p(guess)"; "target->spam %"; "target->unsure %"; "target->ham %";
                "attack success % (not ham)" ]
      ~rows:
        (List.map
           (fun (p, o) ->
             [
               Table.f2 p; Table.f2 o.spam_pct; Table.f2 o.unsure_pct;
               Table.f2 o.ham_pct; Table.f2 (o.spam_pct +. o.unsure_pct);
             ])
           rows)
  in
  "Figure 2: focused attack vs. probability of guessing target tokens\n\n"
  ^ table ^ "\n"
  ^ render_outcomes "verdict mix per guess probability" "p" rows

let render_volume_sweep rows =
  let table =
    Table.render
      ~header:
        [ "attack %"; "target->spam %"; "target->spam|unsure %" ]
      ~rows:
        (List.map
           (fun (f, o) ->
             [
               Printf.sprintf "%.1f" (100.0 *. f);
               Table.f2 o.spam_pct;
               Table.f2 (o.spam_pct +. o.unsure_pct);
             ])
           rows)
  in
  let chart =
    Plot.line_chart ~y_max:100.0 ~x_label:"percent control of training set"
      ~y_label:"percent of target ham misclassified"
      [
        ( "as spam",
          List.map (fun (f, o) -> (100.0 *. f, o.spam_pct)) rows );
        ( "as spam or unsure",
          List.map
            (fun (f, o) -> (100.0 *. f, o.spam_pct +. o.unsure_pct))
            rows );
      ]
  in
  "Figure 3: focused attack vs. attack volume (p = 0.5)\n\n" ^ table ^ "\n"
  ^ chart

let render_token_shifts reports =
  let render_one i report =
    let included, excluded =
      List.partition (fun s -> s.included) report.shifts
    in
    let stats label shifts =
      match shifts with
      | [] -> Printf.sprintf "  %s: none\n" label
      | _ ->
          let deltas =
            Array.of_list (List.map (fun s -> s.after -. s.before) shifts)
          in
          Printf.sprintf
            "  %s: %d tokens, mean score shift %+.3f (min %+.3f, max %+.3f)\n"
            label (List.length shifts)
            (Summary.mean deltas)
            (fst (Summary.min_max deltas))
            (snd (Summary.min_max deltas))
    in
    let scatter =
      Plot.line_chart ~width:50 ~height:16 ~y_max:1.0
        ~x_label:"token score before attack"
        ~y_label:"token score after attack"
        [
          ("included in attack", List.map (fun s -> (s.before, s.after)) included);
          ("not in attack", List.map (fun s -> (s.before, s.after)) excluded);
        ]
    in
    let before_hist = Histogram.create ~bins:10 ~lo:0.0 ~hi:1.0 () in
    let after_hist = Histogram.create ~bins:10 ~lo:0.0 ~hi:1.0 () in
    List.iter
      (fun s ->
        Histogram.add before_hist s.before;
        Histogram.add after_hist s.after)
      report.shifts;
    Printf.sprintf
      "Target %d: %s before attack (I=%.3f) -> %s after attack (I=%.3f)\n%s%s\n%s\n\
       score distribution before attack:\n%s\n\
       score distribution after attack:\n%s\n"
      (i + 1)
      (Label.verdict_to_string report.target_verdict_before)
      report.indicator_before
      (Label.verdict_to_string report.target_verdict_after)
      report.indicator_after
      (stats "included tokens" included)
      (stats "excluded tokens" excluded)
      scatter
      (Histogram.render ~width:30 before_hist)
      (Histogram.render ~width:30 after_hist)
  in
  "Figure 4: focused attack effect on individual token scores\n\n"
  ^ String.concat "\n" (List.mapi render_one reports)

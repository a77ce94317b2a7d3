module Dataset = Spamlab_corpus.Dataset
module Label = Spamlab_spambayes.Label
module Pipeline = Spamlab_core.Pipeline
module Attack = Spamlab_core.Dictionary_attack
module Roni = Spamlab_core.Roni

type round_row = {
  round_index : int;
  attack_emails : int;
  undefended_delivery : float;
  toe_delivery : float;  (* train-on-error policy *)
  defended_delivery : float;
  rejected : int;
}

let total_rounds = 8
let attack_rounds = [ 3; 4 ]

let build_rounds lab rng ~round_size ~attack_payload =
  List.init total_rounds (fun i ->
      let round_index = i + 1 in
      let clean =
        Lab.corpus lab
          ~name:(Printf.sprintf "timeline/round-%d" round_index)
          ~size:round_size ~spam_fraction:0.5
      in
      if List.mem round_index attack_rounds then begin
        let attack_count = max 2 (round_size / 20) in
        let attack_example =
          {
            Dataset.label = Label.Spam;
            ids = attack_payload;
            raw_token_count = Array.length attack_payload;
          }
        in
        let injected =
          Array.append clean (Array.make attack_count attack_example)
        in
        Spamlab_stats.Rng.shuffle rng injected;
        (injected, attack_count)
      end
      else (clean, 0))

let run lab =
  let rng = Lab.rng lab "timeline" in
  let scale = Lab.scale lab in
  let initial_size = max 300 (int_of_float (1_000.0 *. scale)) in
  let round_size = max 100 (int_of_float (500.0 *. scale)) in
  let payload =
    Attack.payload (Lab.tokenizer lab)
      (Attack.make ~name:"usenet" ~words:(Lab.usenet_top lab ~size:19_000))
  in
  let initial_training =
    Lab.corpus lab ~name:"timeline/initial" ~size:initial_size
      ~spam_fraction:0.5
  in
  let rounds_with_counts =
    build_rounds lab rng ~round_size ~attack_payload:payload
  in
  let rounds = List.map fst rounds_with_counts in
  let attack_counts = List.map snd rounds_with_counts in
  (* Rounds and payload are fully interned; freeze before the fan-out
     so in-task id lookups are lock-free. *)
  Spamlab_spambayes.Intern.freeze ();
  (* The three policies replay the same rounds from identical rng
     copies (taken before the fan-out), so they are independent tasks. *)
  let simulations =
    Spamlab_parallel.Pool.map_list (Lab.pool lab)
      (fun (policy, roni, rng) ->
        Spamlab_obs.Obs.span "timeline.policy" @@ fun () ->
        Pipeline.run
          { Pipeline.retrain_period = 1; policy; roni; initial_training }
          rng ~rounds)
      [
        (Pipeline.Train_everything, None, Spamlab_stats.Rng.copy rng);
        (Pipeline.Train_on_error, None, Spamlab_stats.Rng.copy rng);
        ( Pipeline.Train_everything,
          Some Roni.default_config,
          Spamlab_stats.Rng.copy rng );
      ]
  in
  let undefended, toe, defended =
    match simulations with
    | [ u; t; d ] -> (u, t, d)
    | _ -> assert false
  in
  let rec zip3 a b c =
    match (a, b, c) with
    | [], [], [] -> []
    | x :: a, y :: b, z :: c -> (x, y, z) :: zip3 a b c
    | _ -> invalid_arg "Timeline_exp: unequal round lists"
  in
  List.map2
    (fun ((u : Pipeline.round_report), (t : Pipeline.round_report),
          (d : Pipeline.round_report)) attack_emails ->
      {
        round_index = u.Pipeline.round_index;
        attack_emails;
        undefended_delivery =
          100.0 *. Pipeline.ham_delivery_rate u.Pipeline.counts;
        toe_delivery = 100.0 *. Pipeline.ham_delivery_rate t.Pipeline.counts;
        defended_delivery =
          100.0 *. Pipeline.ham_delivery_rate d.Pipeline.counts;
        rejected = d.Pipeline.rejected;
      })
    (zip3 undefended.Pipeline.rounds toe.Pipeline.rounds
       defended.Pipeline.rounds)
    attack_counts

let render rows =
  "Attack timeline: weekly retraining, dictionary-attack burst in rounds 3-4\n\
   (train-on-error retrains only on mistakes, per Section 2.2; the RONI\n\
   pipeline screens spam-labeled mail before training on it)\n\n"
  ^ Table.render
      ~header:
        [
          "round"; "attack emails"; "train-all ham delivery %";
          "train-on-error ham delivery %"; "RONI ham delivery %";
          "RONI rejections";
        ]
      ~rows:
        (List.map
           (fun r ->
             [
               string_of_int r.round_index;
               string_of_int r.attack_emails;
               Table.f2 r.undefended_delivery;
               Table.f2 r.toe_delivery;
               Table.f2 r.defended_delivery;
               string_of_int r.rejected;
             ])
           rows)
  ^ "\n"
  ^ Plot.line_chart ~y_max:100.0 ~x_label:"round"
      ~y_label:"percent of the round's ham delivered as ham"
      [
        ( "train everything",
          List.map
            (fun r -> (float_of_int r.round_index, r.undefended_delivery))
            rows );
        ( "train on error",
          List.map
            (fun r -> (float_of_int r.round_index, r.toe_delivery))
            rows );
        ( "RONI pipeline",
          List.map
            (fun r -> (float_of_int r.round_index, r.defended_delivery))
            rows );
      ]

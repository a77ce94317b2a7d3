(* The paper layers: fig1 and then roni in one process, as [bench all]
   runs them, so the state one experiment leaves behind (the intern
   table, the corpus memo) is paid for by the next.  No workload runs
   them end to end: at scale 0.1 and jobs 2 on a 2-CPU host, 2 of 6
   benchmark runs on the same inputs (two processes each) printed the
   same stdout but took a median 19 to 27 s instead of 7.8 to 8.3 s,
   with a peak RSS of 1.5 to 2.5 GiB instead of 0.55, a spread no bound
   holds.  A traced run times them here, in a process of their own. *)

module Lab = Spamlab_eval.Lab
module Registry = Spamlab_eval.Registry
module Params = Spamlab_eval.Params
module Obs = Spamlab_obs.Obs
module Intern = Spamlab_spambayes.Intern

let scale = 0.1

(* The repository's reference world at every --seed: how long roni
   takes after fig1 depends on the world far more than on the code (at
   scale 0.1 and jobs 2, world seeds 1 to 7 put it anywhere from 7 s to
   48 s), so a seed-dependent world would leave no layer time to
   compare. *)
let world_seed = 42

let jobs () = Domain.recommended_domain_count ()

let run_experiment lab id =
  match Registry.find id with
  | Some e -> ignore (e.run lab)
  | None -> failwith ("unknown experiment " ^ id)

(* Span totals (ms) and counts from the Obs metrics dump. *)
let span_totals path =
  List.filter_map
    (fun l ->
      match
        Scanf.sscanf l " %s %d %f %f %f%!" (fun name count total _ _ ->
            (name, (count, total)))
      with
      | x -> Some x
      | exception _ -> None)
    (String.split_on_char '\n' (Checks.read_file path))

(* fig1 then roni with the Obs registry recording, each layer timed
   around its public entry. *)
let profile (env : Serve.env) r =
  Obs.enable_metrics ();
  let t0 = Proc.now () in
  let lab = Lab.create ~seed:world_seed ~scale ~jobs:(jobs ()) () in
  let d = Params.dictionary ~scale () and rp = Params.roni ~scale () in
  let time f =
    let t = Proc.now () in
    f ();
    Proc.now () -. t
  in
  let generate =
    time (fun () ->
        ignore
          (Lab.corpus lab ~name:"dictionary-attack" ~size:d.train_size
             ~spam_fraction:d.spam_prevalence);
        ignore (Lab.corpus lab ~name:"roni" ~size:rp.pool_size ~spam_fraction:0.5))
  in
  let fig1_s = time (fun () -> run_experiment lab "fig1") in
  let intern_before_roni = Intern.size () in
  let roni_s = time (fun () -> run_experiment lab "roni") in
  Lab.shutdown lab;
  let wall = Proc.now () -. t0 in
  Obs.stop ();
  let dump = Filename.concat env.work "metrics.txt" in
  Out_channel.with_open_text dump Obs.dump_metrics;
  let spans = span_totals dump in
  let span name = Option.value ~default:(0, 0.0) (List.assoc_opt name spans) in
  let _, sweep_ms = span "poison.sweep.point" in
  let na, na_ms = span "roni.non_attack" and at, at_ms = span "roni.attack" in
  Report.metric r "trec.generate_s" "s" generate;
  Report.metric r "lab.fig1_s" "s" fig1_s;
  Report.metric r "lab.roni_s" "s" roni_s;
  Report.metric r "intern.size_before_roni" "tokens"
    (float_of_int intern_before_roni);
  Report.metric r "intern.first_sighting" "count"
    (float_of_int (Obs.counter_value "intern.first_sighting"));
  Report.metric r "poison.sweep_s" "s" (sweep_ms /. 1e3);
  Report.metric r "roni.trial_ms" "ms" ((na_ms +. at_ms) /. float_of_int (max 1 (na + at)));
  Report.metric r "eval.tokens_scored_per_s" "1/s"
    (float_of_int (Obs.counter_value "eval.tokens_scored") /. fig1_s);
  let s =
    Stats.shares ~total:wall
      [ ("trec.generate", generate); ("lab.fig1", fig1_s); ("lab.roni", roni_s) ]
  in
  Report.note r "  stage shares of fig1 + roni in one process (%.2f s, scale %g, jobs %d)"
    wall scale (jobs ());
  List.iter
    (fun (name, x) -> Report.note r "    %-26s %6.1f%%" name (x *. 100.0))
    s.stages;
  Report.note r "    %-26s %6.1f%%" "unattributed" (s.unattributed *. 100.0);
  Report.note r "  poison.sweep.point spans sum %.2f s across %d domains"
    (sweep_ms /. 1e3) (jobs ())

type counter = Metrics.counter

type span_stat = {
  mutable count : int;
  mutable total_ns : int64;
  mutable max_ns : int64;
}

(* Flags are Atomics so that [enabled] is one relaxed load on the fast
   path; the span table, the sink and the origin are guarded by
   [mutex].  The counters are one {!Metrics} registry. *)
let tracing_flag = Atomic.make false
let metrics_flag = Atomic.make false
let mutex = Mutex.create ()
let registry = Metrics.create ()
let span_stats : (string * int, span_stat) Hashtbl.t = Hashtbl.create 64
let sink : out_channel option ref = ref None
let next_span_id = Atomic.make 0
let origin_ns = ref None

let enabled () = Atomic.get tracing_flag || Atomic.get metrics_flag

let locked f =
  Mutex.lock mutex;
  match f () with
  | v ->
      Mutex.unlock mutex;
      v
  | exception e ->
      Mutex.unlock mutex;
      raise e

(* The clock origin is pinned by whichever enable call comes first, so
   trace timestamps of one run share one zero point. *)
let ensure_origin_locked () =
  match !origin_ns with
  | Some t -> t
  | None ->
      let t = Clock.now_ns () in
      origin_ns := Some t;
      t

let start_trace ~path =
  locked (fun () ->
      if !sink <> None then
        invalid_arg "Obs.start_trace: a trace sink is already open";
      let oc = open_out path in
      ignore (ensure_origin_locked ());
      output_string oc
        (Json.line
           [
             Json.str "ev" "meta"; Json.str "format" "spamlab-trace";
             Json.int "version" 1;
           ]);
      output_char oc '\n';
      sink := Some oc);
  Atomic.set tracing_flag true

let enable_metrics () =
  locked (fun () -> ignore (ensure_origin_locked ()));
  Atomic.set metrics_flag true

let counter name = Metrics.counter registry name
let add c n = if enabled () then Metrics.add c n
let incr c = add c 1

let domain_id () = (Domain.self () :> int)

let stat_locked key =
  match Hashtbl.find_opt span_stats key with
  | Some s -> s
  | None ->
      let s = { count = 0; total_ns = 0L; max_ns = 0L } in
      Hashtbl.replace span_stats key s;
      s

let emit_span_locked ~name ~domain ~start_ns ~stop_ns =
  match !sink with
  | None -> ()
  | Some oc ->
      let origin = ensure_origin_locked () in
      let id = Atomic.fetch_and_add next_span_id 1 in
      let t0 = Int64.sub start_ns origin in
      let t1 = Int64.sub stop_ns origin in
      output_string oc
        (Json.line
           [
             Json.str "ev" "span_open"; Json.str "name" name;
             Json.int "id" id; Json.int "domain" domain; Json.i64 "t_ns" t0;
           ]);
      output_char oc '\n';
      output_string oc
        (Json.line
           [
             Json.str "ev" "span_close"; Json.str "name" name;
             Json.int "id" id; Json.int "domain" domain; Json.i64 "t_ns" t1;
             Json.i64 "dur_ns" (Int64.sub t1 t0);
           ]);
      output_char oc '\n'

let record_span name ~start_ns ~stop_ns =
  if enabled () then begin
    let domain = domain_id () in
    let dur = Int64.sub stop_ns start_ns in
    let dur = if Int64.compare dur 0L < 0 then 0L else dur in
    locked (fun () ->
        let s = stat_locked (name, domain) in
        s.count <- s.count + 1;
        s.total_ns <- Int64.add s.total_ns dur;
        if Int64.compare dur s.max_ns > 0 then s.max_ns <- dur;
        emit_span_locked ~name ~domain ~start_ns ~stop_ns)
  end

let span name f =
  if not (enabled ()) then f ()
  else begin
    let start_ns = Clock.now_ns () in
    match f () with
    | v ->
        record_span name ~start_ns ~stop_ns:(Clock.now_ns ());
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record_span name ~start_ns ~stop_ns:(Clock.now_ns ());
        Printexc.raise_with_backtrace e bt
  end

let tick name =
  if enabled () then begin
    let domain = domain_id () in
    locked (fun () ->
        let s = stat_locked (name, domain) in
        s.count <- s.count + 1)
  end

let counters_snapshot () = Metrics.counters registry

let counter_value name = Metrics.value registry name

let stop () =
  locked (fun () ->
      match !sink with
      | None -> ()
      | Some oc ->
          List.iter
            (fun (name, value) ->
              output_string oc
                (Json.line
                   [
                     Json.str "ev" "counter"; Json.str "name" name;
                     Json.int "value" value;
                   ]);
              output_char oc '\n')
            (counters_snapshot ());
          close_out oc;
          sink := None);
  Atomic.set tracing_flag false;
  Atomic.set metrics_flag false

let reset () =
  Metrics.reset registry;
  locked (fun () -> Hashtbl.reset span_stats)

(* ------------------------------------------------------------------ *)
(* Plain-text metrics dump                                             *)

(* Aggregate (name, domain) stats by name; remember which domains each
   name ran on for the utilization section. *)
let aggregated_locked () =
  let by_name : (string, span_stat * (int * int) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  Hashtbl.iter
    (fun (name, domain) s ->
      let total, domains =
        match Hashtbl.find_opt by_name name with
        | Some entry -> entry
        | None ->
            let entry =
              ({ count = 0; total_ns = 0L; max_ns = 0L }, ref [])
            in
            Hashtbl.replace by_name name entry;
            entry
      in
      total.count <- total.count + s.count;
      total.total_ns <- Int64.add total.total_ns s.total_ns;
      if Int64.compare s.max_ns total.max_ns > 0 then
        total.max_ns <- s.max_ns;
      domains := (domain, s.count) :: !domains)
    span_stats;
  Hashtbl.fold (fun name (s, ds) acc -> (name, s, List.sort compare !ds) :: acc)
    by_name []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let ms ns = Int64.to_float ns /. 1e6

let dump_metrics oc =
  let counters = counters_snapshot () in
  let spans = locked (fun () -> aggregated_locked ()) in
  output_string oc "== spamlab metrics ==\n";
  if counters = [] then output_string oc "counters: none\n"
  else begin
    output_string oc "counters:\n";
    List.iter
      (fun (name, v) -> Printf.fprintf oc "  %-40s %14d\n" name v)
      counters
  end;
  let timed = List.filter (fun (_, s, _) -> s.total_ns <> 0L) spans in
  let ticked = List.filter (fun (_, s, _) -> s.total_ns = 0L && s.count > 0) spans in
  if timed = [] then output_string oc "spans: none\n"
  else begin
    Printf.fprintf oc "spans:%38s %10s %12s %12s %12s\n" "" "count"
      "total ms" "mean ms" "max ms";
    List.iter
      (fun (name, s, _) ->
        Printf.fprintf oc "  %-42s %10d %12.2f %12.4f %12.2f\n" name s.count
          (ms s.total_ns)
          (ms s.total_ns /. float_of_int (max 1 s.count))
          (ms s.max_ns))
      timed
  end;
  let with_domains =
    ticked @ List.filter (fun (_, _, ds) -> List.length ds > 1) timed
  in
  if with_domains <> [] then begin
    output_string oc "per-domain distribution (count by domain id):\n";
    List.iter
      (fun (name, _, ds) ->
        Printf.fprintf oc "  %-42s %s\n" name
          (String.concat " "
             (List.map (fun (d, c) -> Printf.sprintf "d%d=%d" d c) ds)))
      with_domains
  end;
  flush oc

module J = Obs.Json

type bound_label = Crit_path | A_stage | C_stage | B_throughput

let bound_name = function
  | Crit_path -> "critical-path"
  | A_stage -> "A-stage"
  | C_stage -> "C-stage"
  | B_throughput -> "B-throughput"

type t = {
  loop_name : string;
  cores : int;
  span : int;
  work : int;
  speedup : float;
  timeline : Timeline.t;
  critpath : Critpath.t;
  result : Sim.Sched.loop_result;
  crit_lower : int;
  a_work : int;
  b_work : int;
  c_work : int;
  b_cores : int;
  lower_bound : int;
  binding : bound_label;
  headroom : int;
  squash_waste : int;
  squashes : int;
  misspec_delayed : int;
}

(* Which term of the lower bound dominates.  The structural critical
   path always exceeds the dominant stage's serial work by the pipeline
   fill/drain, so a strict argmax would never name a stage; instead,
   name the largest stage bottleneck when it explains at least 90% of
   the bound, and call the loop critical-path bound only when no single
   stage does — the bound then comes from cross-iteration dependences,
   not stage capacity. *)
let binding cfg ~phase_work:(a_work, b_work, c_work) ~lower_bound =
  let b_cores = Dswp.Planner.b_core_count cfg in
  let b_throughput = if b_cores > 0 then (b_work + b_cores - 1) / b_cores else b_work in
  let stage, stage_v =
    List.fold_left
      (fun (bl, bv) (label, v) -> if v > bv then (label, v) else (bl, bv))
      (A_stage, a_work)
      [ (C_stage, c_work); (B_throughput, b_throughput) ]
  in
  if 10 * stage_v >= 9 * lower_bound then stage else Crit_path

let of_events (cfg : Machine.Config.t) ?(policy = Sim.Sched.default_policy)
    (loop : Sim.Input.loop) (r : Sim.Sched.loop_result) events =
  let timeline = Timeline.of_events cfg loop r events in
  let critpath = Critpath.extract cfg ~policy loop r events in
  let work = Sim.Input.loop_work loop in
  let span = r.Sim.Sched.span in
  let crit_lower = Sim.Analytic.critical_path loop in
  let ((a_work, b_work, c_work) as phase_work) = Sim.Analytic.phase_work loop in
  let b_cores = Dswp.Planner.b_core_count cfg in
  let lower_bound = Sim.Analytic.lower_bound cfg loop in
  let squash_waste =
    List.fold_left
      (fun acc e ->
        match e with Obs.Event.Task_squash { elapsed; _ } -> acc + elapsed | _ -> acc)
      0 events
  in
  {
    loop_name = loop.Sim.Input.name;
    cores = cfg.Machine.Config.cores;
    span;
    work;
    speedup = (if span = 0 then 1.0 else float_of_int work /. float_of_int span);
    timeline;
    critpath;
    result = r;
    crit_lower;
    a_work;
    b_work;
    c_work;
    b_cores;
    lower_bound;
    binding = binding cfg ~phase_work ~lower_bound;
    headroom = span - lower_bound;
    squash_waste;
    squashes = r.Sim.Sched.squashes;
    misspec_delayed = r.Sim.Sched.misspec_delayed;
  }

let run cfg ?(policy = Sim.Sched.default_policy) ?validate loop =
  let rec_ = Obs.Sink.recorder () in
  let r = Sim.Pipeline.run_loop cfg ~policy ?validate ~obs:(Obs.Sink.record rec_) loop in
  of_events cfg ~policy loop r (Obs.Sink.events rec_)

let validate t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () = Timeline.check t.timeline in
  let* () = Critpath.check t.critpath in
  let* () =
    let len = Critpath.length t.critpath in
    if len = t.span then Ok ()
    else err "%s: critical path length %d <> span %d" t.loop_name len t.span
  in
  let* () =
    let stall_total =
      List.fold_left (fun acc c -> acc + Timeline.total t.timeline c) 0 Timeline.categories
    in
    if stall_total = t.span * t.cores then Ok ()
    else err "%s: stall totals %d <> span*cores %d" t.loop_name stall_total (t.span * t.cores)
  in
  (* The timeline's busy reconstruction must agree with the simulator's
     own per-core busy counters. *)
  let busy = t.result.Sim.Sched.busy in
  let rec per_core c =
    if c >= Array.length t.timeline.Timeline.cores then Ok ()
    else
      let got = Timeline.core_total t.timeline.Timeline.cores.(c) Timeline.Busy in
      let want = if c < Array.length busy then busy.(c) else 0 in
      if got <> want then err "%s: core %d busy %d <> simulator's %d" t.loop_name c got want
      else per_core (c + 1)
  in
  per_core 0

let validate_exn t = match validate t with Ok () -> () | Error m -> failwith m

let stall_fraction t cat =
  let denom = t.span * t.cores in
  if denom = 0 then 0.0 else float_of_int (Timeline.total t.timeline cat) /. float_of_int denom

let queue_full_fraction t =
  if t.span = 0 then 0.0
  else float_of_int t.timeline.Timeline.in_queues_full /. float_of_int t.span

let to_json t =
  let stalls =
    List.map
      (fun c -> (Timeline.category_name c, J.Int (Timeline.total t.timeline c)))
      Timeline.categories
  in
  let path_phases = List.map (fun (p, v) -> (String.make 1 p, J.Int v)) (Critpath.by_phase t.critpath) in
  let path_edges =
    List.map (fun (k, v) -> (Critpath.edge_kind_name k, J.Int v)) (Critpath.by_edge t.critpath)
  in
  J.Obj
    [
      ("loop", J.Str t.loop_name);
      ("cores", J.Int t.cores);
      ("span", J.Int t.span);
      ("work", J.Int t.work);
      ("speedup", J.Float t.speedup);
      ("lower_bound", J.Int t.lower_bound);
      ("binding_bound", J.Str (bound_name t.binding));
      ("headroom", J.Int t.headroom);
      ("critical_path_lb", J.Int t.crit_lower);
      ("phase_work", J.Obj [ ("A", J.Int t.a_work); ("B", J.Int t.b_work); ("C", J.Int t.c_work) ]);
      ("b_cores", J.Int t.b_cores);
      ("stalls", J.Obj stalls);
      ("in_queues_full", J.Int t.timeline.Timeline.in_queues_full);
      ("any_in_queue_full", J.Int t.timeline.Timeline.any_in_queue_full);
      ("any_out_queue_full", J.Int t.timeline.Timeline.any_out_queue_full);
      ("path_phases", J.Obj path_phases);
      ("path_edges", J.Obj path_edges);
      ("squash_waste", J.Int t.squash_waste);
      ("squashes", J.Int t.squashes);
      ("misspec_delayed", J.Int t.misspec_delayed);
    ]

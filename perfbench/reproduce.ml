(* The [reproduce] workload: the paper's evaluation pipeline over all 11
   registry studies at medium scale, on one domain.  Each study goes
   through the layers' public entry points in the order the paper's
   methodology uses them; every call is wrapped in a tracer span named
   after its layer.  Inputs are fixed by the registry (each study seeds
   its own workload), so the benchmark seed does not apply here. *)

module Study = Benchmarks.Study

let scale = Study.Medium

(* The two studies whose Squash-policy sweep the bench's policy ablation
   runs: dense conflicts (twolf) and sparse ones (vortex). *)
let squash_studies = [ "300.twolf"; "255.vortex" ]

type ctx = { pool : Parallel.Pool.t; studies : Study.t list }

let setup () = { pool = Parallel.Pool.create ~domains:1; studies = Benchmarks.Registry.all }

let teardown ctx = Parallel.Pool.shutdown ctx.pool

(* Deterministic outputs of one study; identical on every pass. *)
type outcome = {
  name : string;
  sim_best : float;
  paper_speedup : float;
  plan_winner : float;
  cal_error : float;
}

let loops (input : Sim.Input.t) =
  List.filter_map
    (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
    input.Sim.Input.segments

let task_count input =
  List.fold_left (fun n (l : Sim.Input.loop) -> n + Array.length l.Sim.Input.tasks) 0 (loops input)

let resolve_counts pass (built : Core.Framework.built) =
  List.iter
    (fun (d : Core.Framework.loop_diag) ->
      let s = d.Core.Framework.resolve_stats in
      Pass.add pass "framework.deps" (float_of_int s.Speculation.Resolve.total);
      Pass.add pass "framework.speculated" (float_of_int s.Speculation.Resolve.speculated);
      Pass.add pass "framework.synchronized" (float_of_int s.Speculation.Resolve.synchronized);
      Pass.add pass "framework.removed" (float_of_int s.Speculation.Resolve.removed))
    built.Core.Framework.diagnostics

let sweep tr pass ~policy_name ~policy name input =
  let layer = "sim." ^ policy_name in
  let series =
    Tracer.span tr layer (fun () -> Sim.Speedup.sweep ~policy ~label:name input)
  in
  let points = List.length series.Sim.Speedup.points in
  Pass.add pass (layer ^ ".points") (float_of_int points);
  Pass.add pass (layer ^ ".tasks") (float_of_int (points * task_count input));
  series

(* The self-test's corruption: move one task's finish so the schedule no
   longer covers its work, which the oracle must report. *)
let corrupt_schedule (r : Sim.Sched.loop_result) =
  match r.Sim.Sched.schedule with
  | e :: rest ->
    { r with Sim.Sched.schedule = { e with Sim.Sched.s_finish = e.Sim.Sched.s_finish + 1 } :: rest }
  | [] -> r

(* Every loop's schedule at the study's paper thread count goes through
   the oracle, then through attribution and its conservation checks. *)
let analyse tr pass ~corrupt (s : Study.t) input =
  let cfg = Machine.Config.default ~cores:s.Study.paper_threads in
  List.iteri
    (fun i loop ->
      let r =
        Tracer.span tr "sim.serialize" (fun () -> Sim.Pipeline.run_loop cfg ~validate:false loop)
      in
      Pass.add pass "sim.serialize.points" 1.;
      Pass.add pass "sim.serialize.tasks" (float_of_int (Array.length loop.Sim.Input.tasks));
      let r = if corrupt && i = 0 then corrupt_schedule r else r in
      Tracer.span tr "analysis" (fun () ->
          let what = Printf.sprintf "%s/%s" s.Study.spec_name loop.Sim.Input.name in
          let oracle = Sim.Oracle.validate cfg loop r in
          let attribution = Obs_analysis.Attribution.validate (Obs_analysis.Attribution.run cfg loop) in
          List.iter
            (fun ok -> if not ok then Pass.add pass "analysis.violations" 1.)
            [ Result.is_ok oracle; Result.is_ok attribution ];
          Pass.check pass (Result.is_ok oracle) (what ^ ": oracle violation");
          Pass.check pass (Result.is_ok attribution) (what ^ ": attribution invariant")))
    (loops input)

let plan tr pass ctx (s : Study.t) =
  let report = Tracer.span tr "plan" (fun () -> Core.Plan_search.run ~pool:ctx.pool s) in
  let c = report.Core.Plan_search.search.Dswp.Search.counts in
  Pass.add pass "plan.generated" (float_of_int c.Dswp.Search.generated);
  Pass.add pass "plan.simulated" (float_of_int c.Dswp.Search.simulated);
  Pass.add pass "plan.lint_pruned" (float_of_int c.Dswp.Search.lint_pruned);
  Pass.add pass "plan.bound_pruned" (float_of_int c.Dswp.Search.bound_pruned);
  let winner = Core.Plan_search.winner_speedup report in
  let seed = Core.Plan_search.seed_speedup report in
  let beats_seed =
    match (winner, seed) with Some w, Some sd -> w >= sd | _ -> false
  in
  Pass.check pass (Core.Plan_search.oracle_clean report) (s.Study.spec_name ^ ": plan not oracle-clean");
  Pass.check pass beats_seed (s.Study.spec_name ^ ": plan winner below hand seed");
  Option.value ~default:0. winner

let calibrate tr pass (s : Study.t) =
  let r = Tracer.span tr "calibrate" (fun () -> Core.Plan_search.calibration_report ~scale s) in
  Pass.check pass (Result.is_ok r) (s.Study.spec_name ^ ": calibration failed");
  match r with Ok r -> r.Core.Plan_search.cr_max_rel_error | Error _ -> 0.

let study tr pass ctx ~corrupt (s : Study.t) =
  Tracer.group tr s.Study.spec_name (fun () ->
      let name = s.Study.spec_name in
      let profile = Tracer.span tr "profiling" (fun () -> s.Study.run ~scale) in
      List.iter
        (fun (_, log) ->
          Pass.add pass "profiling.accesses" (float_of_int (Profiling.Access_log.length log)))
        (Profiling.Profile.logs profile);
      let build plan = Tracer.span tr "framework" (fun () -> Core.Framework.build ~plan profile) in
      let built = build s.Study.plan in
      resolve_counts pass built;
      Option.iter (fun p -> resolve_counts pass (build p)) s.Study.baseline_plan;
      ignore
        (Tracer.span tr "auto_plan" (fun () ->
             Core.Framework.build_auto
               ~commutative:s.Study.plan.Speculation.Spec_plan.commutative profile));
      let input = built.Core.Framework.input in
      let series =
        sweep tr pass ~policy_name:"serialize" ~policy:Sim.Pipeline.default_policy name input
      in
      if List.mem name squash_studies then
        ignore
          (sweep tr pass ~policy_name:"squash"
             ~policy:{ Sim.Pipeline.misspec = Sim.Pipeline.Squash; forwarding = false }
             name input);
      analyse tr pass ~corrupt:(corrupt && name = "164.gzip") s input;
      let plan_winner = plan tr pass ctx s in
      let cal_error = calibrate tr pass s in
      {
        name;
        sim_best = (Sim.Speedup.best series).Sim.Speedup.speedup;
        paper_speedup = s.Study.paper_speedup;
        plan_winner;
        cal_error;
      })

let run_pass tr ctx ~corrupt pass =
  List.map
    (fun (s : Study.t) ->
      let name = s.Study.spec_name in
      Pass.unit pass name
        (fun () -> study tr pass ctx ~corrupt s)
        ~default:
          { name; sim_best = 0.; paper_speedup = s.Study.paper_speedup; plan_winner = 0.; cal_error = 0. })
    ctx.studies

(* End-to-end quality of one pass's outcomes (all deterministic). *)
let sim_speedup_geomean os = Pass.geomean (List.map (fun o -> o.sim_best) os)

let paper_log_error os =
  Pass.mean (List.map (fun o -> Float.abs (log (o.sim_best /. o.paper_speedup))) os)

let plan_speedup_geomean os = Pass.geomean (List.map (fun o -> o.plan_winner) os)

let cal_error_max os = List.fold_left (fun m o -> Float.max m o.cal_error) 0. os

type report = {
  bench : string;
  threads : int;
  beam : int;
  budget : int;
  search : Dswp.Search.result;
}

let breaker_key = function
  | Ir.Pdg.Alias_speculation -> "alias"
  | Ir.Pdg.Value_speculation -> "value"
  | Ir.Pdg.Control_speculation -> "ctrl"
  | Ir.Pdg.Silent_store -> "silent"
  | Ir.Pdg.Commutative_annotation g -> "comm:" ^ g
  | Ir.Pdg.Ybranch_annotation -> "ybr"

let distinct_breakers pdg =
  Ir.Pdg.edges pdg
  |> List.filter_map (fun (e : Ir.Pdg.edge) -> e.Ir.Pdg.breaker)
  |> List.sort_uniq compare

(* Project the hand plan onto a breaker subset: enabled kinds inherit
   the hand plan's scope (or a total default the hand plan never
   needed), disabled kinds are zeroed.  Commutative groups the subset
   enables always get a rollback-bearing registry entry, so the derived
   plan cannot trip the lint's missing-rollback check for a reason the
   candidate did not choose. *)
let derive_plan ~(hand : Speculation.Spec_plan.t) ~pdg_breakers breakers =
  let have b = List.exists (fun b' -> b' = b) breakers in
  let alias =
    if have Ir.Pdg.Alias_speculation then
      match hand.Speculation.Spec_plan.alias with
      | Speculation.Spec_plan.No_alias -> Speculation.Spec_plan.Alias_all
      | scope -> scope
    else Speculation.Spec_plan.No_alias
  in
  let value_locs =
    if have Ir.Pdg.Value_speculation then
      if hand.Speculation.Spec_plan.value_locs <> [] then
        hand.Speculation.Spec_plan.value_locs
      else [ "auto-value" ]
    else []
  in
  let pdg_groups =
    List.filter_map
      (function Ir.Pdg.Commutative_annotation g -> Some g | _ -> None)
      pdg_breakers
  in
  let wanted g = have (Ir.Pdg.Commutative_annotation g) in
  let registry = Annotations.Commutative.create () in
  let hand_reg = hand.Speculation.Spec_plan.commutative in
  List.iter
    (fun g ->
      (* Groups the PDG never references keep their hand entries (they
         cannot affect this loop); referenced groups are copied only
         when the subset enables them. *)
      if (not (List.mem g pdg_groups)) || wanted g then
        List.iter
          (fun fn ->
            Annotations.Commutative.annotate registry ~fn ~group:g
              ?rollback:(Annotations.Commutative.rollback_of hand_reg ~fn)
              ())
          (Annotations.Commutative.members hand_reg ~group:g))
    (Annotations.Commutative.groups hand_reg);
  List.iter
    (fun g ->
      if wanted g && not (List.mem g (Annotations.Commutative.groups registry))
      then
        Annotations.Commutative.annotate registry ~fn:g ~group:g
          ~rollback:("undo_" ^ g) ())
    pdg_groups;
  Speculation.Spec_plan.make ~alias ~value_locs
    ~sync_locs:hand.Speculation.Spec_plan.sync_locs
    ~control_speculated:(have Ir.Pdg.Control_speculation)
    ~commutative:registry
    ~silent_stores:(have Ir.Pdg.Silent_store)
    ()

(* The self-test mutation: merge a serial stage into the replicated
   stage.  The donated nodes are either non-replicable or carry a
   surviving self-dependence (that is why the partitioner kept them out
   of B), so the lint pruner must reject the result. *)
let corrupt_partition (p : Dswp.Partition.t) =
  let s ph = Dswp.Partition.stage p ph in
  let a = s Ir.Task.A and b = s Ir.Task.B and c = s Ir.Task.C in
  let donor = if a.Dswp.Partition.nodes <> [] then a else c in
  if donor.Dswp.Partition.nodes = [] then p
  else begin
    let merged =
      {
        b with
        Dswp.Partition.nodes =
          List.sort compare (donor.Dswp.Partition.nodes @ b.Dswp.Partition.nodes);
        weight = b.Dswp.Partition.weight +. donor.Dswp.Partition.weight;
        replicated = true;
      }
    in
    let drained st =
      { st with Dswp.Partition.nodes = []; weight = 0.0; replicated = false }
    in
    {
      p with
      Dswp.Partition.stages =
        [
          (if donor.Dswp.Partition.phase = Ir.Task.A then drained a else a);
          merged;
          (if donor.Dswp.Partition.phase = Ir.Task.C then drained c else c);
        ];
    }
  end

(* Simulated speedup of one loop (serial work over span), with the run
   it came from. *)
let loop_speedup cfg loop =
  let r = Sim.Pipeline.run_loop cfg ~validate:false loop in
  let work = Sim.Input.loop_work loop in
  ( (if r.Sim.Pipeline.span <= 0 then 1.0
     else float_of_int work /. float_of_int r.Sim.Pipeline.span),
    r )

let run ~pool ?(beam = 8) ?(budget = 64) ?(threads = 16) ?(iterations = 64)
    ?(corrupt = false) ?calibration ?(distances = []) (study : Benchmarks.Study.t) =
  (* Calibrated tournaments realize candidates over the profiled
     source's iteration count (capped — speedup converges once the
     pipeline fill is amortized) so scores live on the trace's scale. *)
  let iterations =
    match calibration with
    | Some c -> min (max 2 c.Sim.Calibrate.iterations) 256
    | None -> iterations
  in
  let pdg = study.Benchmarks.Study.pdg () in
  let hand = study.Benchmarks.Study.plan in
  let pdg_breakers = distinct_breakers pdg in
  let hand_breakers =
    List.filter (Speculation.Spec_plan.enabled_breakers hand) pdg_breakers
  in
  let seed =
    {
      Dswp.Search.cand_id = 0;
      cand_label = "seed:hand";
      cand_partitioner = Dswp.Search.Dag_scc;
      cand_breakers = hand_breakers;
      cand_replicate = true;
      cand_queue_capacity = 256;
      cand_seed = true;
    }
  in
  let field =
    Dswp.Search.generate pdg ~replicate_options:[ true; false ]
      ~queue_capacities:[ 8; 256 ] ~first_id:1 ()
  in
  let candidates = seed :: field in
  let plan_of breakers =
    if breakers == hand_breakers then hand
    else derive_plan ~hand ~pdg_breakers breakers
  in
  let cfg_of (cand : Dswp.Search.candidate) =
    let cores = if cand.Dswp.Search.cand_replicate then threads else min threads 3 in
    let comm_latency =
      match calibration with
      | Some c -> c.Sim.Calibrate.queue_latency
      | None -> 1
    in
    Machine.Config.make ~cores
      ~queue_capacity:cand.Dswp.Search.cand_queue_capacity ~comm_latency ()
  in
  (* One realization per candidate, shared by measure and simulate; the
     physical identity also lets the simulator reuse its static data. *)
  let realized : (int, Sim.Input.loop) Hashtbl.t = Hashtbl.create 64 in
  let loop_of (cand : Dswp.Search.candidate) part =
    match Hashtbl.find_opt realized cand.Dswp.Search.cand_id with
    | Some l -> l
    | None ->
      let enabled b =
        List.exists (fun b' -> b' = b) cand.Dswp.Search.cand_breakers
      in
      let l =
        Sim.Realize.loop pdg ~partition:part ~enabled ~iterations ?calibration
          ~distances ()
      in
      Hashtbl.add realized cand.Dswp.Search.cand_id l;
      l
  in
  let lint batch =
    List.map
      (fun ((cand : Dswp.Search.candidate), part) ->
        let plan = plan_of cand.Dswp.Search.cand_breakers in
        Lint.Driver.run ~pdg ~partition:part ~plan ()
        |> Lint.Diagnostic.errors
        |> List.map (fun d -> Format.asprintf "%a" Lint.Diagnostic.pp d))
      batch
  in
  let measure batch =
    List.map
      (fun ((cand : Dswp.Search.candidate), part) ->
        let loop = loop_of cand part in
        let cfg = cfg_of cand in
        let work = Sim.Input.loop_work loop in
        let lb = Sim.Analytic.lower_bound cfg loop in
        let bound =
          if lb <= 0 then 1.0 else float_of_int work /. float_of_int lb
        in
        {
          Dswp.Search.ev_bound = bound;
          ev_binding =
            Obs_analysis.Attribution.(
              bound_name
                (binding cfg ~phase_work:(Sim.Analytic.phase_work loop) ~lower_bound:lb));
        })
      batch
  in
  (* Candidates that realize to the same loop under the same machine
     config share one simulation.  The cache key is semantic (stage
     node sets, breaker set, cores, queue capacity), so the dedup — and
     with it the whole ranking — is identical at any pool size. *)
  let sim_cache : (string, Dswp.Search.sim_row) Hashtbl.t = Hashtbl.create 64 in
  let sim_key (cand : Dswp.Search.candidate) (part : Dswp.Partition.t) =
    let stages =
      List.map
        (fun (s : Dswp.Partition.stage) ->
          String.concat "," (List.map string_of_int s.Dswp.Partition.nodes))
        part.Dswp.Partition.stages
      |> String.concat "|"
    in
    let breakers =
      List.map breaker_key cand.Dswp.Search.cand_breakers
      |> List.sort compare |> String.concat "+"
    in
    let cfg = cfg_of cand in
    Printf.sprintf "%s#%s#c%d#q%d#l%d" stages breakers cfg.Machine.Config.cores
      cfg.Machine.Config.queue_capacity cfg.Machine.Config.comm_latency
  in
  let sim_one ((cand : Dswp.Search.candidate), part) =
    let loop = loop_of cand part in
    let cfg = cfg_of cand in
    let speedup, r = loop_speedup cfg loop in
    let oracle =
      match Sim.Oracle.validate cfg loop r with
      | Ok () -> Ok ()
      | Error v -> Error (Format.asprintf "%a" Sim.Oracle.pp_violation v)
    in
    { Dswp.Search.sim_speedup = speedup; sim_oracle = oracle }
  in
  let simulate batch =
    let keyed = List.map (fun (c, p) -> (sim_key c p, c, p)) batch in
    let fresh =
      List.fold_left
        (fun acc (key, c, p) ->
          if Hashtbl.mem sim_cache key || List.mem_assoc key acc then acc
          else (key, (c, p)) :: acc)
        [] keyed
      |> List.rev
    in
    let rows =
      Parallel.Pool.map pool
        (fun (_, cp) -> sim_one cp)
        (Array.of_list fresh)
    in
    List.iteri (fun i (key, _) -> Hashtbl.replace sim_cache key rows.(i)) fresh;
    List.map (fun (key, _, _) -> Hashtbl.find sim_cache key) keyed
  in
  let hooks = { Dswp.Search.lint; measure; simulate } in
  let mutate = if corrupt then Some (fun _ part -> corrupt_partition part) else None in
  let search =
    Dswp.Search.run ~pdg ~hooks ?mutate ~candidates ~beam ~budget ()
  in
  { bench = study.Benchmarks.Study.spec_name; threads; beam; budget; search }

let seed_outcome report =
  List.find_opt
    (fun (o : Dswp.Search.outcome) -> o.Dswp.Search.out_candidate.Dswp.Search.cand_seed)
    report.search.Dswp.Search.ranked

let speedup_of (o : Dswp.Search.outcome) =
  match o.Dswp.Search.out_status with
  | Dswp.Search.Simulated row -> Some row.Dswp.Search.sim_speedup
  | _ -> None

let seed_speedup report = Option.bind (seed_outcome report) speedup_of

let winner_speedup report =
  Option.bind report.search.Dswp.Search.winner speedup_of

let oracle_clean report =
  List.for_all
    (fun (o : Dswp.Search.outcome) ->
      match o.Dswp.Search.out_status with
      | Dswp.Search.Simulated row -> row.Dswp.Search.sim_oracle = Ok ()
      | _ -> true)
    report.search.Dswp.Search.ranked

(* --- calibration --------------------------------------------------- *)

type cal_point = {
  cp_threads : int;
  cp_trace_speedup : float;
  cp_realized_speedup : float;
}

type cal_report = {
  cr_bench : string;
  cr_cal : Sim.Calibrate.t;
  cr_points : cal_point list;
  cr_max_rel_error : float;
}

(* The profiled loop the study's PDG describes: the heaviest parallel
   loop of the built simulator input. *)
let main_trace_loop (study : Benchmarks.Study.t) ~scale =
  let profile = study.Benchmarks.Study.run ~scale in
  let built = Framework.build ~plan:study.Benchmarks.Study.plan profile in
  let best =
    List.fold_left
      (fun acc seg ->
        match seg with
        | Sim.Input.Serial _ -> acc
        | Sim.Input.Parallel l -> (
          match acc with
          | Some best when Sim.Input.loop_work best >= Sim.Input.loop_work l ->
            acc
          | _ -> Some l))
      None built.Framework.input.Sim.Input.segments
  in
  match best with
  | Some l -> Ok l
  | None ->
    Error
      (Printf.sprintf "%s: no parallel loop in the built input"
         study.Benchmarks.Study.spec_name)

(* Worst relative error of realized speedups against trace speedups,
   pointwise over the sweep. *)
let max_rel_error points =
  List.fold_left
    (fun acc (trace, realized) ->
      let base = Float.max trace 1e-9 in
      Float.max acc (Float.abs (realized -. trace) /. base))
    0. points

(* The B->B mis-speculation rate is the one calibrated parameter whose
   pipeline cost is not a static function of the trace: a distance-1
   squash edge's realized cost depends on replica overlap, cascade
   depth, and restart latency, none of which the edge counts expose
   (the same 15% adjacent-violation rate costs a 4x slowdown on one
   bench and 30% on another).  So the static fit seeds the rate and a
   deterministic grid fit against the profiled-trace sweep picks the
   value minimizing the worst relative error; ties break toward the
   static seed so the measurement wins whenever the sweep cannot tell
   candidates apart. *)
let refine_spec_rate ~pdg ~partition ~enabled ~threads ~trace_speedups cal =
  match Sim.Calibrate.spec_rate_for cal Ir.Task.B Ir.Task.B with
  | None -> cal
  | Some seed ->
    let with_rate r =
      {
        cal with
        Sim.Calibrate.spec_rate =
          List.map
            (fun ((s1, s2), p) ->
              if s1 = Ir.Task.B && s2 = Ir.Task.B then ((s1, s2), r)
              else ((s1, s2), p))
            cal.Sim.Calibrate.spec_rate;
      }
    in
    let err_of cal' =
      let realized_loop =
        Sim.Realize.loop pdg ~partition ~enabled
          ~iterations:(max 2 cal'.Sim.Calibrate.iterations)
          ~calibration:cal' ()
      in
      max_rel_error
        (List.map2
           (fun t trace ->
             let cfg =
               Machine.Config.make ~cores:t
                 ~comm_latency:cal'.Sim.Calibrate.queue_latency ()
             in
             (trace, fst (loop_speedup cfg realized_loop)))
           threads trace_speedups)
    in
    let candidates =
      seed :: List.init 21 (fun i -> float_of_int i /. 20.)
    in
    let best, _ =
      List.fold_left
        (fun (best, best_err) r ->
          let e = err_of (with_rate r) in
          if e < best_err then (r, e) else (best, best_err))
        (seed, err_of cal) candidates
    in
    with_rate best

let calibration_report ?(scale = Benchmarks.Study.Small)
    ?(threads = [ 2; 4; 8; 16 ]) ?calibration (study : Benchmarks.Study.t) =
  match main_trace_loop study ~scale with
  | Error _ as e -> e
  | Ok trace_loop ->
    let pdg = study.Benchmarks.Study.pdg () in
    let enabled = Framework.enabled_breakers study.Benchmarks.Study.plan in
    let partition = Dswp.Partition.partition pdg ~enabled in
    let trace_speedups =
      List.map
        (fun t ->
          fst (loop_speedup (Machine.Config.make ~cores:t ~comm_latency:1 ()) trace_loop))
        threads
    in
    let cal =
      match calibration with
      | Some c -> c (* a user-supplied record is used as-is, no refit *)
      | None ->
        Sim.Calibrate.fit ~bench:study.Benchmarks.Study.spec_name trace_loop
        |> refine_spec_rate ~pdg ~partition ~enabled ~threads ~trace_speedups
    in
    let realized_loop =
      Sim.Realize.loop pdg ~partition ~enabled
        ~iterations:(max 2 cal.Sim.Calibrate.iterations)
        ~calibration:cal ()
    in
    let points =
      List.map2
        (fun t trace ->
          {
            cp_threads = t;
            cp_trace_speedup = trace;
            cp_realized_speedup =
              fst
                (loop_speedup
                   (Machine.Config.make ~cores:t
                      ~comm_latency:cal.Sim.Calibrate.queue_latency ())
                   realized_loop);
          })
        threads trace_speedups
    in
    let max_err =
      max_rel_error
        (List.map (fun p -> (p.cp_trace_speedup, p.cp_realized_speedup)) points)
    in
    Ok
      {
        cr_bench = study.Benchmarks.Study.spec_name;
        cr_cal = cal;
        cr_points = points;
        cr_max_rel_error = max_err;
      }

let cal_report_json r =
  Obs.Json.Obj
    [
      ("study", Obs.Json.Str r.cr_bench);
      ("calibration", Sim.Calibrate.to_json r.cr_cal);
      ( "points",
        Obs.Json.Arr
          (List.map
             (fun p ->
               Obs.Json.Obj
                 [
                   ("threads", Obs.Json.Int p.cp_threads);
                   ("trace", Obs.Json.Float p.cp_trace_speedup);
                   ("realized", Obs.Json.Float p.cp_realized_speedup);
                 ])
             r.cr_points) );
      ("max_rel_error", Obs.Json.Float r.cr_max_rel_error);
    ]

let pp_cal_report ppf r =
  Format.fprintf ppf "calibration %a@." Sim.Calibrate.pp r.cr_cal;
  Format.fprintf ppf "  %7s %8s %9s %8s@." "threads" "trace" "realized"
    "rel-err";
  List.iter
    (fun p ->
      let base = Float.max p.cp_trace_speedup 1e-9 in
      Format.fprintf ppf "  %7d %7.3fx %8.3fx %7.1f%%@." p.cp_threads
        p.cp_trace_speedup p.cp_realized_speedup
        (100. *. Float.abs (p.cp_realized_speedup -. p.cp_trace_speedup) /. base))
    r.cr_points;
  Format.fprintf ppf "  max relative error %.1f%%@." (100. *. r.cr_max_rel_error)

let pp ppf report =
  let r = report.search in
  Format.fprintf ppf "plan search: %s at %d threads (beam %d, budget %d)@."
    report.bench report.threads report.beam report.budget;
  Format.fprintf ppf "%-4s  %-34s %-8s %8s %8s  %s@." "rank" "candidate"
    "partnr" "bound" "speedup" "status";
  let rank = ref 0 in
  List.iter
    (fun (o : Dswp.Search.outcome) ->
      let cand = o.Dswp.Search.out_candidate in
      let bound =
        match o.Dswp.Search.out_eval with
        | Some e -> Printf.sprintf "%.3f" e.Dswp.Search.ev_bound
        | None -> "-"
      in
      let rank_s, speedup, status =
        match o.Dswp.Search.out_status with
        | Dswp.Search.Simulated row ->
          incr rank;
          ( string_of_int !rank,
            Printf.sprintf "%.3f" row.Dswp.Search.sim_speedup,
            (match row.Dswp.Search.sim_oracle with
            | Ok () -> "ok"
            | Error v -> "ORACLE: " ^ v) )
        | Dswp.Search.Bound_pruned -> ("-", "-", "bound-pruned")
        | Dswp.Search.Budget_pruned -> ("-", "-", "budget-pruned")
        | Dswp.Search.Lint_pruned errs ->
          ("-", "-", Printf.sprintf "lint-pruned (%d errors)" (List.length errs))
      in
      Format.fprintf ppf "%-4s  %-34s %-8s %8s %8s  %s@." rank_s
        cand.Dswp.Search.cand_label
        (Dswp.Search.partitioner_name cand.Dswp.Search.cand_partitioner)
        bound speedup status)
    r.Dswp.Search.ranked;
  let c = r.Dswp.Search.counts in
  Format.fprintf ppf
    "counts: generated %d, lint-pruned %d, bound-pruned %d, budget-pruned %d, simulated %d@."
    c.Dswp.Search.generated c.Dswp.Search.lint_pruned c.Dswp.Search.bound_pruned
    c.Dswp.Search.budget_pruned c.Dswp.Search.simulated;
  match (r.Dswp.Search.winner, seed_speedup report) with
  | Some w, hand ->
    let ws = Option.value ~default:nan (speedup_of w) in
    Format.fprintf ppf "winner: %s (%s) speedup %.3f%s@."
      w.Dswp.Search.out_candidate.Dswp.Search.cand_label
      (Dswp.Search.partitioner_name
         w.Dswp.Search.out_candidate.Dswp.Search.cand_partitioner)
      ws
      (match hand with
      | Some h -> Printf.sprintf " (hand plan %.3f)" h
      | None -> " (hand plan not simulated)")
  | None, _ -> Format.fprintf ppf "winner: none (no candidate survived)@."

(* The repository benchmark: run one named workload for a fixed time,
   check every output, and print each metric by name with its unit.

     bench.exe --workload reproduce|real-fine|real-apps --seed N
               --seconds S --trace 0|1 [--setup-only] [--self-test-corrupt]

   --trace 0 runs untraced passes and reports the end-to-end metrics.
   --trace 1 alternates untraced and traced passes and reports the
   per-layer metrics, derived from spans the tracer records around every
   call into a layer, plus the tracing overhead.  The spans are written
   to perfbench/out/ as a Chrome trace and an Obs.Summary span table.
   --setup-only prints "ready" once set-up is done and exits; the wrapper
   script times it from process start.  --self-test-corrupt damages one
   output per pass, which must show as failed operations.  The last
   line of standard output is one JSON object. *)

type workload = Reproduce of Reproduce.ctx | Real of Real.ctx

type outcome = Studies of Reproduce.outcome list | Timings of Real.timing list

type pass_record = {
  traced : bool;
  wall : float;
  pass : Pass.t;
  outcome : outcome;
  first_span : int;  (** span ids of this pass are >= first_span ... *)
  last_span : int;  (** ... and < last_span *)
  minor_gcs : int;
  major_gcs : int;
  heap_words : int;  (** the process's top heap size when the pass ended *)
}

let out_dir = Filename.concat "perfbench" "out"

let setup name ~seed =
  match name with
  | "reproduce" -> Reproduce (Reproduce.setup ())
  | "real-fine" -> Real (Real.setup_fine ~seed)
  | "real-apps" -> Real (Real.setup_apps ())
  | _ -> invalid_arg ("unknown workload " ^ name)

let teardown = function Reproduce c -> Reproduce.teardown c | Real c -> Real.teardown c

let run_pass w tr ~probes ~corrupt =
  let pass = Pass.create () in
  let first_span = Tracer.next_id tr in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Tracer.span tr "pass" (fun () ->
        match w with
        | Reproduce c -> Studies (Reproduce.run_pass tr c ~corrupt pass)
        | Real c -> Timings (Real.run_pass tr c ~probes ~corrupt pass))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    traced = Tracer.enabled tr;
    wall;
    pass;
    outcome;
    first_span;
    last_span = Tracer.next_id tr;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    heap_words = gc1.Gc.top_heap_words;
  }

(* Reproduce outputs are deterministic: every pass must match the first. *)
let check_repeat first r =
  match (first.outcome, r.outcome) with
  | Studies a, Studies b ->
    Pass.check r.pass (a = b) "reproduce: a pass's results differ from the first pass's"
  | _ -> ()

(* Passes until [seconds] have elapsed, starting another only when the
   median pass so far still fits.  With [traced] the passes alternate
   untraced / traced, starting untraced, and at least one of each runs. *)
let measure w ~seconds ~trace ~corrupt =
  let off = Tracer.create ~enabled:false in
  let on = Tracer.create ~enabled:true in
  let probes = Real.probes () in
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let min_passes = if trace then 2 else 1 in
  let rec loop acc =
    let n = List.length acc in
    let typical = Pass.median (List.map (fun r -> r.wall) acc) in
    if n >= min_passes && Unix.gettimeofday () +. typical > deadline then List.rev acc
    else begin
      let traced = trace && n mod 2 = 1 in
      let r =
        run_pass w (if traced then on else off)
          ~probes:(if traced then Some probes else None)
          ~corrupt
      in
      (match acc with [] -> () | _ -> check_repeat (List.nth acc (n - 1)) r);
      loop (r :: acc)
    end
  in
  (loop [], on, probes)

(* ---- metrics ---- *)

let e2e_units =
  [ ("wall_s", "s"); ("speedup_geomean", "x"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [
    ("profiling.s", "s"); ("profiling.minor_mwords", "Mwords"); ("profiling.accesses", "count");
    ("profiling.ns_per_access", "ns");
    ("framework.s", "s"); ("framework.minor_mwords", "Mwords"); ("framework.deps", "count");
    ("framework.speculated", "count"); ("framework.synchronized", "count");
    ("framework.removed", "count");
    ("auto_plan.s", "s");
    ("sim.s", "s"); ("sim.points", "count"); ("sim.tasks", "count"); ("sim.ns_per_task", "ns");
    ("sim.minor_mwords", "Mwords");
    ("sim.serialize.s", "s"); ("sim.serialize.points", "count"); ("sim.serialize.tasks", "count");
    ("sim.serialize.ns_per_task", "ns");
    ("sim.squash.s", "s"); ("sim.squash.points", "count"); ("sim.squash.tasks", "count");
    ("sim.squash.ns_per_task", "ns");
    ("analysis.s", "s"); ("analysis.violations", "count");
    ("plan.s", "s"); ("plan.generated", "count"); ("plan.simulated", "count");
    ("plan.lint_pruned", "count"); ("plan.bound_pruned", "count"); ("plan.useful_ratio", "ratio");
    ("calibrate.s", "s");
    ("staged.build_s", "s"); ("staged.seq_s", "s");
    ("exec.s", "s"); ("exec.busy_s", "s"); ("exec.starved_s", "s"); ("exec.blocked_s", "s");
    ("exec.squashes", "count"); ("exec.violations", "count");
    ("exec.minor_words_per_iter", "words"); ("exec.minor_collections", "count");
    ("check.s", "s"); ("bench.self_s", "s");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("probe.stage_us.p50", "us"); ("probe.push_stall_us.p99", "us");
    ("probe.pop_stall_us.p99", "us"); ("probe.validate_us.p50", "us"); ("probe.dropped", "count");
    ("trace.overhead", "ratio");
    ("sim_speedup_geomean", "x"); ("paper_log_error", "ratio"); ("plan_speedup_geomean", "x");
    ("cal_error_max", "ratio"); ("real_speedup_geomean", "x"); ("fail_ratio", "ratio");
  ]

(* Span name -> the per-layer time metric its self time feeds. *)
let layer_of_span = function
  | "profiling" -> "profiling.s"
  | "framework" -> "framework.s"
  | "auto_plan" -> "auto_plan.s"
  | "sim.serialize" -> "sim.serialize.s"
  | "sim.squash" -> "sim.squash.s"
  | "analysis" -> "analysis.s"
  | "plan" -> "plan.s"
  | "calibrate" -> "calibrate.s"
  | "staged.build" -> "staged.build_s"
  | "staged.seq" -> "staged.seq_s"
  | "exec" -> "exec.s"
  | "check" -> "check.s"
  | _ -> "bench.self_s"

(* Minor words the calling domain allocated per layer (reproduce runs on
   one domain, so this is every allocation of the layer). *)
let words_of_span = function
  | "profiling" -> Some "profiling.minor_mwords"
  | "framework" -> Some "framework.minor_mwords"
  | "sim.serialize" | "sim.squash" -> Some "sim.minor_mwords"
  | _ -> None

(* Per-layer values of one traced pass. *)
let layer_values selfs r =
  let c = Pass.create () in
  Hashtbl.iter (Pass.add c) r.pass.Pass.counters;
  List.iter
    (fun ((s : Tracer.span), self) ->
      if s.Tracer.id >= r.first_span && s.Tracer.id < r.last_span then begin
        Pass.add c (layer_of_span s.Tracer.name) self;
        Option.iter (fun m -> Pass.add c m (s.Tracer.minor_words /. 1e6)) (words_of_span s.Tracer.name)
      end)
    selfs;
  let v = Pass.counter c in
  let set name x = Hashtbl.replace c.Pass.counters name x in
  set "sim.s" (v "sim.serialize.s" +. v "sim.squash.s");
  set "sim.points" (v "sim.serialize.points" +. v "sim.squash.points");
  set "sim.tasks" (v "sim.serialize.tasks" +. v "sim.squash.tasks");
  List.iter
    (fun p -> set (p ^ "ns_per_task") (Pass.ratio (v (p ^ "s") *. 1e9) (v (p ^ "tasks"))))
    [ "sim."; "sim.serialize."; "sim.squash." ];
  set "profiling.ns_per_access" (Pass.ratio (v "profiling.s" *. 1e9) (v "profiling.accesses"));
  set "plan.useful_ratio" (Pass.ratio (v "plan.simulated") (v "plan.generated"));
  set "exec.minor_words_per_iter" (Pass.ratio (v "exec.minor_words") (v "exec.iterations"));
  set "gc.minor_collections" (float_of_int r.minor_gcs);
  set "gc.major_collections" (float_of_int r.major_gcs);
  v

(* Peak heap, in all domains, over set-up and the first [heap_passes]
   passes (or all of them, when fewer ran).  The top heap keeps growing
   slowly from pass to pass, so a fixed pass count keeps it comparable
   between runs that fit different numbers of passes; many passes
   smooth out when one pass's major GC cycle happens to end. *)
let heap_passes = 20

let peak_heap_mb rs =
  match min heap_passes (List.length rs) with
  | 0 -> 0.
  | n -> float_of_int ((List.nth rs (n - 1)).heap_words * (Sys.word_size / 8)) /. 1048576.

let studies rs = List.filter_map (fun r -> match r.outcome with Studies o -> Some o | Timings _ -> None) rs

let timings rs = List.filter_map (fun r -> match r.outcome with Timings t -> Some t | Studies _ -> None) rs

(* Wall-clock of a typical pass: the sum over studies (or pipelines) of
   each one's median time over the passes.  Taking medians per study
   rather than per pass discards a burst of machine noise that slows
   one study without discarding the whole pass around it. *)
let median_wall = function
  | [] -> 0.
  | first :: _ as rs ->
    let units = List.concat_map (fun r -> r.pass.Pass.units) rs in
    List.fold_left (fun acc (name, _) -> acc +. Pass.median_of name units) 0. first.pass.Pass.units

(* End-to-end speedup: simulated Table 2 geomean on reproduce, measured
   run_seq / Exec.run geomean on real-*.  Only untraced passes count. *)
let speedup_geomean untraced =
  match studies untraced with
  | o :: _ -> Reproduce.sim_speedup_geomean o
  | [] -> Real.speedup_geomean (timings untraced)

let quality untraced all =
  let attempted = List.fold_left (fun n r -> n + r.pass.Pass.attempted) 0 all in
  let failed = List.fold_left (fun n r -> n + r.pass.Pass.failed) 0 all in
  let by_study f = match studies untraced with o :: _ -> f o | [] -> 0. in
  [
    ("sim_speedup_geomean", by_study Reproduce.sim_speedup_geomean);
    ("paper_log_error", by_study Reproduce.paper_log_error);
    ("plan_speedup_geomean", by_study Reproduce.plan_speedup_geomean);
    ("cal_error_max", by_study Reproduce.cal_error_max);
    ("real_speedup_geomean", Real.speedup_geomean (timings untraced));
    ("fail_ratio", Pass.ratio (float_of_int failed) (float_of_int attempted));
  ]

let per_layer rs tr (probes : Real.probes) =
  let traced = List.filter (fun r -> r.traced) rs in
  let untraced = List.filter (fun r -> not r.traced) rs in
  let selfs = Tracer.self_times tr in
  let values = List.map (layer_values selfs) traced in
  let median name = Pass.median (List.map (fun v -> v name) values) in
  let fixed =
    [
      ("probe.stage_us.p50", float_of_int (Obs.Hist.quantile probes.Real.stage 0.5));
      ("probe.push_stall_us.p99", float_of_int (Obs.Hist.quantile probes.Real.push_stall 0.99));
      ("probe.pop_stall_us.p99", float_of_int (Obs.Hist.quantile probes.Real.pop_stall 0.99));
      ("probe.validate_us.p50", float_of_int (Obs.Hist.quantile probes.Real.validate 0.5));
      ("trace.overhead", Pass.ratio (median_wall traced) (median_wall untraced));
    ]
    @ quality untraced rs
  in
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name fixed with Some v -> v | None -> median name in
      (name, v, unit))
    per_layer_units

let end_to_end rs =
  let values =
    [
      ("wall_s", median_wall rs);
      ("speedup_geomean", speedup_geomean rs);
      ("peak_heap_mb", peak_heap_mb rs);
    ]
  in
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) e2e_units

(* ---- output ---- *)

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) rows

(* Per pipeline: median run_seq and Exec.run seconds, and the median of
   their per-pass ratio. *)
let print_pipelines passes =
  if passes <> [] then begin
    let all = List.concat passes in
    let seq = List.map (fun (u : Real.timing) -> (u.Real.pipeline, u.Real.seq_s)) all in
    let par = List.map (fun (u : Real.timing) -> (u.Real.pipeline, u.Real.par_s)) all in
    Printf.printf "  %-20s %10s %10s %8s\n" "pipeline" "seq_s" "par_s" "speedup";
    List.iter
      (fun (name, speedup) ->
        Printf.printf "  %-20s %10.4f %10.4f %8.3f\n" name (Pass.median_of name seq)
          (Pass.median_of name par) speedup)
      (Real.pipeline_speedups passes)
  end

let write_trace workload ~seed tr =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" workload seed) in
  Obs.Summary.write_file (base ^ ".trace.json") (Obs.Json.to_string (Tracer.to_chrome tr) ^ "\n");
  Obs.Summary.write_json ~spans:(Obs.Span.snapshot (Tracer.self_registry tr)) (base ^ ".summary.json");
  base

let self_time_table rs tr =
  let traced = List.length (List.filter (fun r -> r.traced) rs) in
  Printf.printf "self time per traced pass (%d traced passes):\n" traced;
  List.iter
    (fun (row : Obs.Span.row) ->
      Printf.printf "  %-20s %10.4f s  (%d spans)\n" row.Obs.Span.name
        (row.Obs.Span.total_s /. float_of_int (max 1 traced))
        row.Obs.Span.count)
    (Obs.Span.snapshot (Tracer.self_registry tr))

let result_line rs metrics =
  let attempted = List.fold_left (fun n r -> n + r.pass.Pass.attempted) 0 rs in
  let failed = List.fold_left (fun n r -> n + r.pass.Pass.failed) 0 rs in
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let setup_only = ref false and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " reproduce | real-fine | real-apps");
      ("--seed", Arg.Set_int seed, " seed of real-fine's random PDGs");
      ("--seconds", Arg.Set_int seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " print \"ready\" after set-up and exit");
      ("--self-test-corrupt", Arg.Set corrupt, " damage one output per pass");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w = setup !workload ~seed:!seed in
  if !setup_only then begin
    print_endline "ready";
    teardown w;
    exit 0
  end;
  let traced = !trace = 1 in
  let rs, tr, probes = measure w ~seconds:!seconds ~trace:traced ~corrupt:!corrupt in
  teardown w;
  List.iter
    (fun r -> List.iter (Printf.printf "FAILED %s\n") (List.rev r.pass.Pass.failures))
    rs;
  let untraced = List.filter (fun r -> not r.traced) rs in
  Printf.printf "%s: %d passes (%d traced), seed %d\n" !workload (List.length rs)
    (List.length rs - List.length untraced) !seed;
  Printf.printf "untraced pass wall_s: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) untraced));
  print_pipelines (timings untraced);
  let metrics =
    if traced then begin
      let base = write_trace !workload ~seed:!seed tr in
      print_table "untraced, beside the traced run:" (end_to_end untraced);
      self_time_table rs tr;
      Printf.printf "spans written to %s.{trace,summary}.json\n" base;
      per_layer rs tr probes
    end
    else end_to_end rs
  in
  print_table (if traced then "per-layer:" else "end-to-end:") metrics;
  print_endline (result_line rs metrics)

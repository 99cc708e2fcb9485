(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation studies DESIGN.md calls out, and times
   the simulator/compiler kernels with Bechamel.

     dune exec bench/main.exe              # everything, medium scale
     dune exec bench/main.exe -- quick     # skip the Bechamel timing pass

   Independent studies run across a Domain pool sized by REPRO_JOBS
   (default: the machine's recommended domain count).  All printing
   happens on the main domain in registry order, so stdout is
   byte-identical at any job count. *)

open Bechamel
open Toolkit

let scale = Benchmarks.Study.Medium

(* Span aggregates want wall-clock, not processor time. *)
let () = Obs.Span.set_clock Unix.gettimeofday

let jobs = Parallel.Pool.default_domains ()

(* Where the machine-readable outputs (BENCH_pipeline.json,
   BENCH_summary.{json,csv}, BENCH_history.jsonl) land.  The default is
   the working directory — the files are committed perf records; tests
   and check.sh point BENCH_DIR at a scratch directory instead. *)
let bench_dir = Option.value (Sys.getenv_opt "BENCH_DIR") ~default:"."

let bench_path name = Filename.concat bench_dir name

let pool = Parallel.Pool.create ~domains:jobs

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* ------------------------------------------------------------------ *)
(* Experiments (computed once, reused by figures, tables and timers)   *)

(* Per-study wall-clock, recorded for BENCH_pipeline.json. *)
let study_seconds : (string * float) list ref = ref []

(* Per-study GC deltas under [--gc-stats].  Measured with
   [Gc.quick_stat] in whichever domain runs the study; with work
   stealing a study's sweep points may execute in other domains, so the
   per-study numbers are approximate attribution — the whole-run totals
   in the history record (main domain + pool per-slot sums) are exact. *)
let gc_stats_enabled = ref false

let study_gc : (string * (float * float * int)) list ref = ref []

let experiments =
  lazy
    (let timed =
       Parallel.Pool.map_list pool
         (fun (s : Benchmarks.Study.t) ->
           let t0 = Unix.gettimeofday () in
           let g0 = if !gc_stats_enabled then Some (Gc.quick_stat ()) else None in
           (* The nested sweep shares the pool: its points are stealable
              by idle domains instead of running sequentially in this
              one — that long-tail study no longer serializes the run. *)
           let e = Core.Experiment.run ~pool ~scale s in
           let g =
             match g0 with
             | None -> (0., 0., 0)
             | Some g0 ->
               let g1 = Gc.quick_stat () in
               ( g1.Gc.minor_words -. g0.Gc.minor_words,
                 g1.Gc.major_words -. g0.Gc.major_words,
                 g1.Gc.minor_collections - g0.Gc.minor_collections )
           in
           (e, Unix.gettimeofday () -. t0, g))
         Benchmarks.Registry.all
     in
     if !gc_stats_enabled then
       study_gc :=
         List.map
           (fun ((e : Core.Experiment.t), _, g) ->
             (e.Core.Experiment.study.Benchmarks.Study.spec_name, g))
           timed;
     let timed = List.map (fun (e, dt, _) -> (e, dt)) timed in
     study_seconds :=
       List.map
         (fun ((e : Core.Experiment.t), dt) ->
           let name = e.Core.Experiment.study.Benchmarks.Study.spec_name in
           Obs.Span.record Obs.Span.default ("study/" ^ name) dt;
           (name, dt))
         timed;
     List.map fst timed)

let experiment name =
  List.find
    (fun (e : Core.Experiment.t) -> e.Core.Experiment.study.Benchmarks.Study.spec_name = name)
    (Lazy.force experiments)

let by_names names = List.map experiment names

let study name =
  match Benchmarks.Registry.find name with Some s -> s | None -> assert false

(* ------------------------------------------------------------------ *)
(* Figures and tables                                                  *)

let figure1 () =
  section "Figure 1: Y-branch motivating example (dictionary compression)";
  let rng = Simcore.Rng.create 1 in
  let text = Workloads.Textgen.repetitive_text rng ~bytes:50000 ~redundancy:0.5 in
  let y = Annotations.Ybranch.make ~probability:0.0001 in
  let heuristic =
    Workloads.Dict_compress.compress ~policy:Workloads.Dict_compress.Heuristic text
  in
  let fixed =
    Workloads.Dict_compress.compress
      ~policy:(Workloads.Dict_compress.Fixed_interval (Annotations.Ybranch.interval y))
      text
  in
  Format.printf "@YBRANCH(probability=%.4f): cut interval %d chars@."
    (Annotations.Ybranch.probability y) (Annotations.Ybranch.interval y);
  Format.printf "heuristic: %d restarts, %d bits@." heuristic.Workloads.Dict_compress.restarts
    heuristic.Workloads.Dict_compress.output_bits;
  Format.printf "y-branch : %d restarts, %d bits (independent blocks: %d)@."
    fixed.Workloads.Dict_compress.restarts fixed.Workloads.Dict_compress.output_bits
    (List.length fixed.Workloads.Dict_compress.segments)

let speedup_of series n =
  match Sim.Speedup.at_threads series n with
  | Some p -> p.Sim.Speedup.speedup
  | None -> nan

let figure2 () =
  section "Figure 2: Commutative motivating example (Yacm_random)";
  let registry = Annotations.Commutative.create () in
  Annotations.Commutative.annotate registry ~fn:"Yacm_random" ~rollback:"Yacm_set_seed" ();
  (match Annotations.Commutative.validate_speculative registry with
  | Ok () -> Format.printf "COMMUTATIVE Yacm_random: valid under speculation@."
  | Error e -> Format.printf "invalid: %s@." e);
  let twolf = experiment "300.twolf" in
  let baseline = Core.Experiment.run ~scale ~use_baseline_plan:true (study "300.twolf") in
  Format.printf "300.twolf at 8 threads: %.2fx with the annotation, %.2fx without@."
    (speedup_of twolf.Core.Experiment.series 8)
    (speedup_of baseline.Core.Experiment.series 8)

let figure3 () =
  section "Figure 3: phase dependence graph and execution plan";
  Core.Report.figure3 Format.std_formatter (Machine.Config.default ~cores:8)

let figure4 () =
  section "Figure 4: speedup — 181.mcf, 253.perlbmk, 255.vortex, 256.bzip2";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 4)"
    (by_names [ "181.mcf"; "253.perlbmk"; "255.vortex"; "256.bzip2" ])

let figure5 () =
  section "Figure 5: speedup — 176.gcc, 254.gap";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 5)"
    (by_names [ "176.gcc"; "254.gap" ])

let figure6 () =
  section "Figure 6: speedup — 175.vpr, 186.crafty, 197.parser, 300.twolf";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 6)"
    (by_names [ "175.vpr"; "186.crafty"; "197.parser"; "300.twolf" ]);
  Core.Chart.pp Format.std_formatter
    (List.map
       (fun (e : Core.Experiment.t) -> e.Core.Experiment.series)
       (by_names [ "175.vpr"; "186.crafty"; "197.parser"; "300.twolf" ]))

let figure7 () =
  section "Figure 7: speedup — 164.gzip";
  Core.Report.figure Format.std_formatter ~title:"(paper Figure 7)" (by_names [ "164.gzip" ]);
  Format.printf "fixed-interval blocking compression loss: %.2f%% (paper: < 1%%)@."
    (100.0 *. Benchmarks.B164_gzip.compression_loss ~scale:Benchmarks.Study.Small)

let table1 () =
  section "Table 1: parallelized loops, lines changed, techniques";
  Core.Report.table1 Format.std_formatter Benchmarks.Registry.all

let table2 () =
  section "Table 2: best speedup vs Moore's-law expectation";
  Core.Report.table2 Format.std_formatter (Lazy.force experiments)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_annotations () =
  section "Ablation: sequential-model extensions on vs off (16 threads)";
  Format.printf "%-12s %12s %12s@." "benchmark" "annotated" "baseline";
  let rows =
    Parallel.Pool.map_list pool
      (fun name ->
        match Benchmarks.Registry.find name with
        | Some s when s.Benchmarks.Study.baseline_plan <> None ->
          let a = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] s in
          let b = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] ~use_baseline_plan:true s in
          Some
            ( name,
              speedup_of a.Core.Experiment.series 16,
              speedup_of b.Core.Experiment.series 16 )
        | _ -> None)
      Benchmarks.Registry.names
  in
  List.iter
    (function
      | Some (name, a, b) -> Format.printf "%-12s %11.2fx %11.2fx@." name a b
      | None -> ())
    rows;
  (* gzip and gcc ablate through workload variants, not plans. *)
  let sweep_plan plan profile =
    let built = Core.Framework.build ~plan profile in
    Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label:"x" built.Core.Framework.input
  in
  let gzip = study "164.gzip" in
  let gcc = study "176.gcc" in
  let variants =
    Parallel.Pool.map_list pool
      (fun mk -> speedup_of (mk ()) 16)
      [
        (fun () ->
          sweep_plan gzip.Benchmarks.Study.plan
            (Benchmarks.B164_gzip.run_with_policy ~ybranch:true ~scale));
        (fun () ->
          sweep_plan gzip.Benchmarks.Study.plan
            (Benchmarks.B164_gzip.run_with_policy ~ybranch:false ~scale));
        (fun () ->
          sweep_plan gcc.Benchmarks.Study.plan
            (Benchmarks.B176_gcc.run_with_label_scheme ~per_function_labels:true ~scale));
        (fun () ->
          sweep_plan gcc.Benchmarks.Study.plan
            (Benchmarks.B176_gcc.run_with_label_scheme ~per_function_labels:false ~scale));
      ]
  in
  match variants with
  | [ gzip_y; gzip_h; gcc_per_fn; gcc_global ] ->
    Format.printf "%-12s %11.2fx %11.2fx   (Y-branch vs heuristic blocks)@." "164.gzip"
      gzip_y gzip_h;
    Format.printf "%-12s %11.2fx %11.2fx   (per-function vs global label_num)@." "176.gcc"
      gcc_per_fn gcc_global
  | _ -> assert false

let ablation_policies () =
  section "Ablation: misspeculation policy and eager forwarding (16 threads)";
  List.iter
    (fun bench ->
      Format.printf "%s:@." bench;
      let rows =
        Parallel.Pool.map_list pool
          (fun (label, policy) ->
            let e = Core.Experiment.run ~pool ~scale ~threads:[ 1; 16 ] ~policy (study bench) in
            let misspec = Core.Experiment.misspec_total e ~threads:16 in
            (label, speedup_of e.Core.Experiment.series 16, misspec))
          [
            ( "serialize (paper's model)",
              { Sim.Pipeline.misspec = Sim.Pipeline.Serialize; forwarding = false } );
            ( "squash + re-execute",
              { Sim.Pipeline.misspec = Sim.Pipeline.Squash; forwarding = false } );
            ( "serialize + forwarding",
              { Sim.Pipeline.misspec = Sim.Pipeline.Serialize; forwarding = true } );
          ]
      in
      List.iter
        (fun (label, sp, misspec) ->
          Format.printf "  %-28s %8.2fx  (misspec-affected tasks: %d)@." label sp misspec)
        rows)
    (* twolf: dense conflicts — squash collapses into a re-execution
       storm, vindicating the paper's serialize-on-occurrence model;
       vortex: sparse conflicts — the policies barely differ. *)
    [ "300.twolf"; "255.vortex" ]

let ablation_queue_capacity () =
  section "Ablation: queue capacity (164.gzip, 16 threads; paper uses 32 entries)";
  let gzip = study "164.gzip" in
  let profile = gzip.Benchmarks.Study.run ~scale in
  let built = Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile in
  Parallel.Pool.map_list pool
    (fun cap ->
      let config ~cores = Machine.Config.make ~cores ~queue_capacity:cap () in
      let series =
        Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~config ~label:"q" built.Core.Framework.input
      in
      (cap, speedup_of series 16))
    [ 1; 2; 4; 8; 32; 128 ]
  |> List.iter (fun (cap, sp) -> Format.printf "capacity %3d: %.2fx@." cap sp)

let ablation_silent_stores () =
  section "Ablation: silent-store detection (181.mcf refresh_potential, 16 threads)";
  let mcf = study "181.mcf" in
  Parallel.Pool.map_list pool
    (fun (label, silent) ->
      let plan =
        { mcf.Benchmarks.Study.plan with Speculation.Spec_plan.silent_stores = silent }
      in
      let profile = mcf.Benchmarks.Study.run ~scale in
      let built = Core.Framework.build ~plan profile in
      let series = Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label built.Core.Framework.input in
      (label, speedup_of series 16))
    [ ("silent stores on", true); ("silent stores off", false) ]
  |> List.iter (fun (label, sp) -> Format.printf "%-22s %.2fx@." label sp)

let dswp_vs_tls () =
  section "DSWP plan vs TLS plan (paper Section 3.2: 'similar results'; 16 threads)";
  Format.printf "%-12s %10s %10s@." "benchmark" "DSWP" "TLS";
  List.iter
    (fun (e : Core.Experiment.t) ->
      let input = e.Core.Experiment.built.Core.Framework.input in
      let tls = Sim.Tls_plan.speedup (Machine.Config.default ~cores:16) input in
      Format.printf "%-12s %9.2fx %9.2fx@."
        e.Core.Experiment.study.Benchmarks.Study.spec_name
        (speedup_of e.Core.Experiment.series 16)
        tls)
    (Lazy.force experiments)

let auto_vs_hand () =
  section "Automatic (profile-guided) plan vs hand plan (16 threads)";
  Format.printf "%-12s %10s %10s@." "benchmark" "hand" "auto";
  Parallel.Pool.map_list pool
    (fun (s : Benchmarks.Study.t) ->
      let speedup_built (b : Core.Framework.built) =
        let series =
          Sim.Speedup.sweep ~pool ~threads:[ 1; 16 ] ~label:"x" b.Core.Framework.input
        in
        speedup_of series 16
      in
      let hand =
        speedup_built (Core.Framework.build ~plan:s.Benchmarks.Study.plan (s.Benchmarks.Study.run ~scale))
      in
      let auto_built, _ =
        Core.Framework.build_auto
          ~commutative:s.Benchmarks.Study.plan.Speculation.Spec_plan.commutative
          (s.Benchmarks.Study.run ~scale)
      in
      (s.Benchmarks.Study.spec_name, hand, speedup_built auto_built))
    Benchmarks.Registry.all
  |> List.iter (fun (name, hand, auto) ->
         Format.printf "%-12s %9.2fx %9.2fx@." name hand auto)

let gantt_demo () =
  section "Schedule detail: 256.bzip2 on 8 cores (Gantt; paper Figure 3c's shape)";
  let bzip2 = study "256.bzip2" in
  let profile = bzip2.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
  let built = Core.Framework.build ~plan:bzip2.Benchmarks.Study.plan profile in
  List.iter
    (function
      | Sim.Input.Serial _ -> ()
      | Sim.Input.Parallel loop ->
        let r = Sim.Pipeline.run_loop (Machine.Config.default ~cores:8) loop in
        Sim.Gantt.pp ~cores:8 Format.std_formatter r)
    built.Core.Framework.input.Sim.Input.segments

let static_model () =
  section "Static model: DSWP partition and pipeline bound per benchmark";
  List.iter
    (fun (s : Benchmarks.Study.t) ->
      let partition =
        Dswp.Partition.partition (s.Benchmarks.Study.pdg ())
          ~enabled:(Core.Framework.enabled_breakers s.Benchmarks.Study.plan)
      in
      Format.printf "%-12s parallel fraction %.2f, static bound at 32 threads %.1fx@."
        s.Benchmarks.Study.spec_name
        (Dswp.Partition.parallel_fraction partition)
        (Dswp.Partition.pipeline_bound partition ~threads:32))
    Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Bechamel timing of the kernels                                      *)

let bechamel_tests () =
  let gzip_input =
    lazy
      (let gzip = study "164.gzip" in
       let profile = gzip.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
       (Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile).Core.Framework.input)
  in
  let sim_kernel cores () =
    let input = Lazy.force gzip_input in
    ignore (Sim.Pipeline.run (Machine.Config.default ~cores) input)
  in
  let partition_kernel () =
    List.iter
      (fun (s : Benchmarks.Study.t) ->
        ignore
          (Dswp.Partition.partition (s.Benchmarks.Study.pdg ())
             ~enabled:(Core.Framework.enabled_breakers s.Benchmarks.Study.plan)))
      Benchmarks.Registry.all
  in
  let profiler_kernel () =
    let bzip2 = study "256.bzip2" in
    let p = bzip2.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
    ignore (Core.Framework.build ~plan:bzip2.Benchmarks.Study.plan p)
  in
  [
    Test.make ~name:"pipeline-sim/8-cores" (Staged.stage (sim_kernel 8));
    Test.make ~name:"pipeline-sim/32-cores" (Staged.stage (sim_kernel 32));
    Test.make ~name:"dswp-partition/all-pdgs" (Staged.stage partition_kernel);
    Test.make ~name:"profile+resolve/bzip2-small" (Staged.stage profiler_kernel);
  ]

let run_bechamel () =
  section "Bechamel: simulator and compiler kernel timings";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let grouped = Test.make_grouped ~name:"kernels" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ t ] -> Format.printf "%-32s %12.0f ns/run@." name t
      | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Machine-readable perf record                                        *)

(* BENCH_pipeline.json gives future PRs a wall-clock trajectory: jobs
   used, total harness time, and per-study experiment time.  Timings
   vary run to run and are deliberately kept out of stdout so that the
   printed tables/figures stay byte-identical at any job count. *)
let write_bench_json ~total_seconds =
  let oc = open_out (bench_path "BENCH_pipeline.json") in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"harness\": \"bench/main.exe\",\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"scale\": %S,\n" (Benchmarks.Study.scale_to_string scale);
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n" total_seconds;
  Printf.fprintf oc "  \"studies\": [";
  List.iteri
    (fun i (name, dt) ->
      Printf.fprintf oc "%s\n    { \"name\": %S, \"seconds\": %.3f }"
        (if i = 0 then "" else ",")
        name dt)
    !study_seconds;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* BENCH_summary.{json,csv}: simulator counters/gauges from one
   instrumented registry run (164.gzip, 16 cores — the paper's headline
   configuration) plus every wall-clock span aggregate the harness
   accumulated (per-study experiment times, per-sweep-point simulation
   times across all pool domains).  Like BENCH_pipeline.json these are
   files, not stdout, so the printed report stays byte-identical. *)
(* Per-study attribution at the paper's thread count: where each loop's
   span goes (stalls, critical-path composition, bounds headroom) plus
   the one-line diagnosis.  Attached to BENCH_summary.json so the perf
   record says not just how fast but why. *)
let attribution_blocks () =
  List.concat_map
    (fun (e : Core.Experiment.t) ->
      let s = e.Core.Experiment.study in
      let cfg = Machine.Config.default ~cores:s.Benchmarks.Study.paper_threads in
      List.filter_map
        (function
          | Sim.Input.Serial _ -> None
          | Sim.Input.Parallel loop ->
            let a = Obs_analysis.Attribution.run cfg loop in
            let block =
              match Obs_analysis.Attribution.to_json a with
              | Obs.Json.Obj fields ->
                Obs.Json.Obj
                  (("study", Obs.Json.Str s.Benchmarks.Study.spec_name)
                   :: fields
                  @ [ ("diagnosis", Obs.Json.Str (Obs_analysis.Explain.diagnose a)) ])
              | j -> j
            in
            Some block)
        e.Core.Experiment.built.Core.Framework.input.Sim.Input.segments)
    (Lazy.force experiments)

(* Per-study calibration fidelity: fit Sim.Calibrate from each study's
   profiled trace, realize the hand partition through the calibrated
   cost model, and record the worst relative error against the trace
   sweep.  scripts/check_calibration.ml gates on these numbers, so a
   regression in the calibrated realization shows up as a failing check
   rather than a silently drifting model. *)
let calibration_blocks () =
  Parallel.Pool.map_list pool
    (fun (s : Benchmarks.Study.t) ->
      match Core.Plan_search.calibration_report ~scale s with
      | Ok r -> Core.Plan_search.cal_report_json r
      | Error e ->
        Obs.Json.Obj
          [
            ("study", Obs.Json.Str s.Benchmarks.Study.spec_name);
            ("error", Obs.Json.Str e);
          ])
    Benchmarks.Registry.all

let write_obs_summary () =
  let gzip = study "164.gzip" in
  let profile = gzip.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
  let built = Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile in
  let metrics =
    Sim.Pipeline.metrics (Machine.Config.default ~cores:16) built.Core.Framework.input
  in
  let spans = Obs.Span.snapshot Obs.Span.default in
  let extra =
    [
      ("attribution", Obs.Json.Arr (attribution_blocks ()));
      ("calibration", Obs.Json.Arr (calibration_blocks ()));
    ]
  in
  Obs.Summary.write_json ~metrics ~spans ~extra (bench_path "BENCH_summary.json");
  Obs.Summary.write_csv ~metrics ~spans (bench_path "BENCH_summary.csv")

(* ------------------------------------------------------------------ *)
(* Bench history (JSONL, appended every run)                           *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    if status = Unix.WEXITED 0 && line <> "" then line else "unknown"

(* Digest of everything that changes what the simulated numbers mean:
   input scale, the study list, and the default machine parameters.
   Same digest => entries are comparable; compare_bench warns (but still
   compares) when it differs. *)
let config_digest () =
  let cfg = Machine.Config.default ~cores:8 in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (Benchmarks.Study.scale_to_string scale
           :: string_of_int cfg.Machine.Config.queue_capacity
           :: string_of_int cfg.Machine.Config.comm_latency
           :: Benchmarks.Registry.names)))

let write_history ~total_seconds =
  let studies =
    List.map2
      (fun (e : Core.Experiment.t) (name, dt) ->
        assert (e.Core.Experiment.study.Benchmarks.Study.spec_name = name);
        let best = Core.Experiment.best e in
        {
          Obs_analysis.History.study = name;
          threads = best.Sim.Speedup.threads;
          span = best.Sim.Speedup.result.Sim.Pipeline.total_time;
          speedup = best.Sim.Speedup.speedup;
          seconds = dt;
        })
      (Lazy.force experiments) !study_seconds
  in
  (* Whole-run GC accounting: the main domain's [quick_stat] plus the
     pool's per-slot minor-word sums, which cover allocation in the
     worker domains that the main domain's counters never see.  (Slot 0
     is the main domain helping the pool — already inside [quick_stat] —
     so only slots >= 1 are added.) *)
  let gc =
    if not !gc_stats_enabled then None
    else begin
      let g = Gc.quick_stat () in
      let ps = Parallel.Pool.stats pool in
      let worker_minor = ref 0. in
      Array.iteri
        (fun i w -> if i > 0 then worker_minor := !worker_minor +. w)
        ps.Parallel.Pool.stat_minor_words;
      Some
        {
          Obs_analysis.History.gc_minor_words = g.Gc.minor_words +. !worker_minor;
          gc_promoted_words = g.Gc.promoted_words;
          gc_major_words = g.Gc.major_words;
          gc_minor_collections = g.Gc.minor_collections;
          gc_major_collections = g.Gc.major_collections;
        }
    end
  in
  let entry =
    {
      Obs_analysis.History.rev = git_rev ();
      config = config_digest ();
      scale = Benchmarks.Study.scale_to_string scale;
      jobs;
      total_seconds;
      gc;
      studies;
      real = [];
    }
  in
  Obs_analysis.History.append (bench_path "BENCH_history.jsonl") entry

(* GC report under [--gc-stats]: stderr, never stdout — the printed
   tables must stay byte-identical at any job count and GC numbers vary
   with scheduling. *)
let print_gc_report () =
  Format.eprintf "@.--- GC stats (--gc-stats) ---@.";
  List.iter
    (fun (name, (minor, major, mcoll)) ->
      Format.eprintf "%-14s minor %12.0f words, major %12.0f words, %5d minor collections@."
        name minor major mcoll)
    !study_gc;
  let g = Gc.quick_stat () in
  Format.eprintf
    "main domain: %.0f minor words, %.0f promoted, %.0f major, %d/%d minor/major collections@."
    g.Gc.minor_words g.Gc.promoted_words g.Gc.major_words g.Gc.minor_collections
    g.Gc.major_collections;
  Format.eprintf "%a@." Parallel.Pool.pp_stats pool

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  gc_stats_enabled := List.mem "--gc-stats" args;
  let t0 = Unix.gettimeofday () in
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  figure5 ();
  figure6 ();
  figure7 ();
  table1 ();
  table2 ();
  ablation_annotations ();
  ablation_policies ();
  ablation_queue_capacity ();
  ablation_silent_stores ();
  dswp_vs_tls ();
  auto_vs_hand ();
  gantt_demo ();
  static_model ();
  if not quick then run_bechamel ();
  let total_seconds = Unix.gettimeofday () -. t0 in
  write_bench_json ~total_seconds;
  write_obs_summary ();
  write_history ~total_seconds;
  if !gc_stats_enabled then print_gc_report ();
  Parallel.Pool.shutdown pool;
  Format.printf "@.done.@."

(* The [real-fine] and [real-apps] workloads: staged pipelines run on
   real domains by Runtime.Exec, each beside its sequential run.

   - real-fine: Runtime.Synthetic pipelines whose stage bodies are a few
     hashes, so queue operations, per-item allocation and minor GCs
     dominate.  Their PDGs are the 11 registry PDGs, each cut by
     Dswp.Partition under its study's plan, plus random PDGs drawn from
     Check.Gen_ir with the benchmark seed.  Outputs are checked against
     Synthetic.reference, computed once, in the first pass's check: it
     is the benchmark's oracle, not the program's set-up, and a single
     sequential loop of that size times too unsteadily to sit in
     setup_s.  The median over passes discards the first pass's extra
     time.
   - real-apps: Runtime.Real_bench pipelines at medium scale, whose
     stage bodies are the workload kernels.  Outputs are checked against
     Staged.run_seq of the same pass, and run_seq against the first
     pass's output.  Inputs are fixed by the registry. *)

let threads = 2

(* real-fine sizing: iterations per pipeline and random PDG count. *)
let fine_iterations = 25_000

let random_pdgs = 4

type pipeline = {
  name : string;
  build : unit -> Runtime.Staged.t;  (** a fresh pipeline per run *)
  reference : (unit -> string) option;  (** the oracle's output, where there is one *)
  mutable expected : string option;  (** reference output, once known *)
}

type ctx = { pool : Parallel.Pool.t; pipelines : pipeline list }

let teardown ctx = Parallel.Pool.shutdown ctx.pool

let synthetic name pdg partition =
  let iterations = fine_iterations in
  {
    name;
    build = (fun () -> Runtime.Synthetic.staged pdg partition ~iterations);
    reference = Some (fun () -> Runtime.Synthetic.reference pdg partition ~iterations);
    expected = None;
  }

(* Random PDGs with every breaker enabled, kept only when the plan
   linter accepts the cut and its parallel stage is non-empty — the
   acceptance path real plans go through. *)
let draw_random ~seed =
  let enabled _ = true in
  let gen = Check.Gen_ir.pdg ~max_nodes:12 ~breakers:true () in
  let rec draw i acc =
    if List.length acc = random_pdgs then List.rev acc
    else if i >= 10_000 then failwith "real-fine: too few usable random PDGs"
    else begin
      let rng = Simcore.Rng.create (Runtime.Staged.mix seed i) in
      let pdg = Check.Gen.Tree.root (Check.Gen.generate gen rng) in
      let partition = Dswp.Partition.partition pdg ~enabled in
      let usable =
        (Dswp.Partition.stage partition Ir.Task.B).Dswp.Partition.nodes <> []
        && Lint.Diagnostic.errors (Lint.Plan_check.check_enabled ~pdg ~partition ~enabled) = []
      in
      draw (i + 1) (if usable then (Printf.sprintf "random-%d" i, pdg, partition) :: acc else acc)
    end
  in
  draw 0 []

let setup_fine ~seed =
  let pool = Parallel.Pool.create ~domains:threads in
  let registry =
    List.map
      (fun (s : Benchmarks.Study.t) ->
        let pdg = s.Benchmarks.Study.pdg () in
        let enabled = Core.Framework.enabled_breakers s.Benchmarks.Study.plan in
        (s.Benchmarks.Study.spec_name, pdg, Dswp.Partition.partition pdg ~enabled))
      Benchmarks.Registry.all
  in
  let pipelines =
    List.map (fun (name, pdg, partition) -> synthetic name pdg partition) (registry @ draw_random ~seed)
  in
  (* Construct each pipeline once, so set-up pays any construction cost
     the first timed pass would otherwise pay alone. *)
  List.iter (fun p -> ignore (p.build ())) pipelines;
  { pool; pipelines }

let setup_apps () =
  let pool = Parallel.Pool.create ~domains:threads in
  let pipelines =
    List.map
      (fun name ->
        {
          name;
          build = (fun () -> Runtime.Real_bench.staged ~scale:Benchmarks.Study.Medium name);
          reference = None;
          expected = None;
        })
      Runtime.Real_bench.names
  in
  List.iter (fun p -> ignore (p.build ())) pipelines;
  { pool; pipelines }

(* Wall-clock of one pipeline in one pass. *)
type timing = { pipeline : string; seq_s : float; par_s : float }

(* Probe histograms merged over every role, pipeline and traced pass. *)
type probes = {
  mutable stage : Obs.Hist.t;
  mutable push_stall : Obs.Hist.t;
  mutable pop_stall : Obs.Hist.t;
  mutable validate : Obs.Hist.t;
}

let probes () =
  {
    stage = Obs.Hist.create ();
    push_stall = Obs.Hist.create ();
    pop_stall = Obs.Hist.create ();
    validate = Obs.Hist.create ();
  }

let record_telemetry pass probes (t : Runtime.Exec.telemetry) =
  Array.iter
    (fun (r : Runtime.Exec.role_probe) ->
      probes.stage <- Obs.Hist.merge probes.stage r.Runtime.Exec.rp_stage;
      probes.push_stall <- Obs.Hist.merge probes.push_stall r.Runtime.Exec.rp_push_stall;
      probes.pop_stall <- Obs.Hist.merge probes.pop_stall r.Runtime.Exec.rp_pop_stall;
      probes.validate <- Obs.Hist.merge probes.validate r.Runtime.Exec.rp_validate)
    t.Runtime.Exec.tl_roles;
  Pass.add pass "probe.dropped" (float_of_int t.Runtime.Exec.tl_dropped)

let record_stats pass (s : Runtime.Exec.stats) =
  Array.iter
    (fun (r : Runtime.Exec.role_stats) ->
      Pass.add pass "exec.busy_s" r.Runtime.Exec.rs_busy;
      Pass.add pass "exec.starved_s" r.Runtime.Exec.rs_starved;
      Pass.add pass "exec.blocked_s" r.Runtime.Exec.rs_blocked)
    s.Runtime.Exec.roles;
  Pass.add pass "exec.squashes" (float_of_int s.Runtime.Exec.squashes);
  Pass.add pass "exec.violations" (float_of_int s.Runtime.Exec.violations)

let pool_minor_words pool =
  Array.fold_left ( +. ) 0. (Parallel.Pool.stats pool).Parallel.Pool.stat_minor_words

(* The self-test's corruption: flip one byte of an output. *)
let flip s =
  if s = "" then "\000"
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Bytes.to_string b
  end

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let pipeline tr pass ctx ~probes ~corrupt p =
  Tracer.group tr p.name (fun () ->
      let staged = Tracer.span tr "staged.build" p.build in
      let seq, seq_s = timed (fun () -> Tracer.span tr "staged.seq" (fun () -> Runtime.Staged.run_seq staged)) in
      let staged = Tracer.span tr "staged.build" p.build in
      let traced = Tracer.enabled tr in
      let words0 = if traced then pool_minor_words ctx.pool else 0. in
      let gc0 = if traced then (Gc.quick_stat ()).Gc.minor_collections else 0 in
      let r, par_s =
        timed (fun () ->
            Tracer.span tr "exec" (fun () ->
                Runtime.Exec.run ~pool:ctx.pool ~probe:(probes <> None) ~threads ~name:p.name staged))
      in
      if traced then begin
        Pass.add pass "exec.minor_words" (pool_minor_words ctx.pool -. words0);
        Pass.add pass "exec.minor_collections"
          (float_of_int ((Gc.quick_stat ()).Gc.minor_collections - gc0));
        Pass.add pass "exec.iterations" (float_of_int (Runtime.Staged.iterations staged))
      end;
      record_stats pass r.Runtime.Exec.stats;
      (match (probes, r.Runtime.Exec.telemetry) with
       | Some probes, Some t -> record_telemetry pass probes t
       | _ -> ());
      Tracer.span tr "check" (fun () ->
          let par = if corrupt then flip r.Runtime.Exec.output else r.Runtime.Exec.output in
          let expected =
            match p.expected with
            | Some e -> e
            | None ->
              let e = match p.reference with Some f -> f () | None -> seq in
              p.expected <- Some e;
              e
          in
          Pass.check pass (seq = expected) (p.name ^ ": run_seq output differs from its reference");
          Pass.check pass (par = expected) (p.name ^ ": parallel output differs from its reference"));
      { pipeline = p.name; seq_s; par_s })

let run_pass tr ctx ~probes ~corrupt pass =
  List.mapi
    (fun i p ->
      Pass.unit pass p.name
        (fun () -> pipeline tr pass ctx ~probes ~corrupt:(corrupt && i = 0) p)
        ~default:{ pipeline = p.name; seq_s = 0.; par_s = 0. })
    ctx.pipelines

(* Per pipeline, the median over passes of one pass's run_seq time over
   its parallel time.  The two runs of a pair are adjacent in time, so
   drift in the machine's speed cancels. *)
let pipeline_speedups (passes : timing list list) =
  match passes with
  | [] -> []
  | first :: _ ->
    let ratios = List.concat_map (List.map (fun u -> (u.pipeline, Pass.ratio u.seq_s u.par_s))) passes in
    List.map (fun t -> (t.pipeline, Pass.median_of t.pipeline ratios)) first

(* Each pipeline weighs equally, so one long pipeline cannot hide the
   others. *)
let speedup_geomean passes = Pass.geomean (List.map snd (pipeline_speedups passes))

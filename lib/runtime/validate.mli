(** The [repro validate-real] driver: run registry benchmarks on real
    domains and cross-check them against the simulator.

    For each selected benchmark this runs the {!Real_bench} pipeline at
    every thread count from 1 to [max_threads], checks that the
    parallel output is byte-identical to the sequential reference,
    measures wall-clock speedup, and prints it side by side with the
    simulator's predicted speedup for the same study at the same thread
    count (profile -> {!Core.Framework.build} -> {!Sim.Speedup.sweep}).

    With [history] set, one {!Obs_analysis.History} entry is appended
    whose [real] block holds every measured point; the regression and
    scaling gates skip such entries.  With [trace] set, the first
    benchmark is re-run with probes on once per {e parallel} sweep
    point (2..[max_threads] threads) and each run's rings, decoded by
    {!Exec.events}, written as its own Chrome trace: for
    [--trace out.json] the files are [out-t2.json], [out-t3.json], ...
    The 1-thread point runs the
    sequential reference, which has no roles and hence no events, so
    no [-t1] file is written.

    [corrupt] is the gate's self-test: it flips one byte of the first
    parallel output before comparison, which must make {!run} report a
    mismatch — proving the equality check can actually fail. *)

type outcome = {
  ok : bool;  (** every output byte-identical at every thread count *)
  benches : int;
  points : Obs_analysis.History.real_point list;
}

val run :
  ?benches:string list ->
  ?max_threads:int ->
  ?scale:Benchmarks.Study.scale ->
  ?history:string ->
  ?trace:string ->
  ?corrupt:bool ->
  unit ->
  outcome
(** Defaults: all 11 registry benchmarks, [max_threads = 4], [Small]
    scale, no history, no trace, no corruption. *)

(** Speedup attribution for one parallelized loop.

    Combines the per-core stall {!Timeline}, the executed-schedule
    {!Critpath} and the {!Sim.Analytic} bounds into one record that
    answers "where did the time go, and how far is this run from the
    best any schedule could do?".  [run] simulates the loop with an
    in-memory recorder and attributes the result; [of_events] works on
    an already-recorded stream (e.g. a re-parsed trace).

    [validate] asserts the two conservation invariants the analysis is
    built on: every core's stall segments tile [0, span] exactly (so the
    category totals sum to span × cores), and the critical path's length
    equals the span.  It also cross-checks the timeline's busy time per
    core against the simulator's own busy counters. *)

type bound_label = Crit_path | A_stage | C_stage | B_throughput

val bound_name : bound_label -> string

val binding :
  Machine.Config.t -> phase_work:int * int * int -> lower_bound:int -> bound_label
(** The stage whose serial work explains >= 90% of [lower_bound]
    (largest of A, C, B-throughput), else [Crit_path].  [phase_work] is
    the loop's {!Sim.Analytic.phase_work}.  Both {!of_events} and the
    planner's bound pass label loops with it. *)

type t = {
  loop_name : string;
  cores : int;
  span : int;
  work : int;  (** serial work of the loop *)
  speedup : float;  (** work / span *)
  timeline : Timeline.t;
  critpath : Critpath.t;
  result : Sim.Sched.loop_result;
  crit_lower : int;  (** {!Sim.Analytic.critical_path} *)
  a_work : int;
  b_work : int;
  c_work : int;
  b_cores : int;
  lower_bound : int;  (** {!Sim.Analytic.lower_bound} *)
  binding : bound_label;
      (** the stage whose serial work explains >= 90% of [lower_bound]
          (largest of A, C, B-throughput), or [Crit_path] when no single
          stage does and the bound comes from cross-iteration
          dependences instead *)
  headroom : int;  (** span - lower_bound, >= 0 up to latency effects *)
  squash_waste : int;  (** work units consumed by squashed runs *)
  squashes : int;
  misspec_delayed : int;
}

val of_events :
  Machine.Config.t ->
  ?policy:Sim.Sched.policy ->
  Sim.Input.loop ->
  Sim.Sched.loop_result ->
  Obs.Event.t list ->
  t

val run : Machine.Config.t -> ?policy:Sim.Sched.policy -> ?validate:bool -> Sim.Input.loop -> t
(** Simulate with a private recorder, then attribute.  [?validate] is
    passed through to the simulator's oracle check. *)

val validate : t -> (unit, string) result

val validate_exn : t -> unit
(** Raises [Failure] with the first violated invariant. *)

val stall_fraction : t -> Timeline.category -> float
(** Category total over span × cores; 0 on an empty loop. *)

val queue_full_fraction : t -> float
(** Fraction of the span during which every in-queue was at capacity
    (the condition that stalls the A core). *)

val to_json : t -> Obs.Json.t
(** Stable object shape used by the bench harness's per-study
    attribution blocks and [repro explain]. *)

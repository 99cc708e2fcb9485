(** Event-driven simulator of the paper's execution plan (Section 3).

    One core runs phase A tasks serially; phase B tasks are dispatched, at
    phase-A completion, to the least-loaded B core's bounded in-queue
    (32 entries by default — a full queue stalls the A core); each B core
    executes its queue in FIFO order and delivers results through a
    bounded out-queue; one core runs phase C serially, consuming and
    committing iterations in order.  Communication through a queue costs
    [comm_latency] work units.

    Dependence handling follows the paper's methodology: synchronized
    edges always delay the consumer until the producer finishes;
    speculated edges are the dynamic dependences that actually occurred,
    and under the default [Serialize] policy they too delay the consumer
    (loss of speculation benefit, no extra cost).  The [Squash] policy
    instead lets the consumer run and squashes + re-executes it when the
    producer finishes later (modelling wasted work).  [forwarding] enables
    eager value forwarding: a consumer may overlap a producer provided its
    read (at [dst_offset]) happens no earlier than the producer's write
    (at [src_offset]). *)

type misspec_policy = Sched.misspec_policy = Serialize | Squash

type policy = Sched.policy = { misspec : misspec_policy; forwarding : bool }

val default_policy : policy
(** [Serialize], no forwarding — the paper's model. *)

type sched_entry = Sched.sched_entry = {
  s_task : int;
  s_core : int;
  s_start : int;
  s_finish : int;
}
(** Final (non-squashed) execution interval of one task. *)

type loop_result = Sched.loop_result = {
  span : int;  (** parallel execution time of the loop *)
  busy : int array;
      (** per-core busy work units.  Includes squashed work, charged at
          what the core actually spent: a run aborted mid-flight counts
          only its elapsed time, a completed-then-squashed run counts in
          full — so [busy.(c) <= span] for every core under every
          policy. *)
  misspec_delayed : int;  (** tasks whose start a speculated edge delayed *)
  squashes : int;  (** re-executions under [Squash] *)
  in_queue_high_water : int;
      (** peak in-queue occupancy.  A squash re-inserts the task at the
          head of its in-queue without re-running the capacity check (it
          reclaims the slot it issued from), so under [Squash] this may
          exceed [queue_capacity] by at most [squashes]; fresh dispatches
          from phase A always respect the bound. *)
  out_queue_high_water : int;
  b_tasks_per_core : int array;  (** B tasks executed per B core *)
  schedule : sched_entry list;
      (** one entry per task, in completion order; intervals on one core
          never overlap *)
}

type result = {
  total_time : int;  (** parallel time of the whole program *)
  sequential_time : int;  (** single-threaded time of the same input *)
  loops : (string * loop_result) list;
}

val validate_default : bool ref
(** When true, every simulated schedule is re-checked by {!Oracle}
    (a violation raises [Failure]).  Initialized from the [SIM_VALIDATE]
    environment variable ("1"/"true"/"yes"/"on"); the per-call
    [?validate] argument overrides it. *)

val run_loop :
  Machine.Config.t ->
  ?policy:policy ->
  ?validate:bool ->
  ?obs:Obs.Sink.t ->
  Input.loop ->
  loop_result
(** [?obs] (default {!Obs.Sink.null}) receives the run's structured
    events — task start/finish/squash, iteration commits, queue
    push/pop with occupancy, dispatch and wake — with loop-local times;
    the null sink costs one branch per site and no allocation.  The
    result depends only on the config, the policy and the loop. *)

val run :
  Machine.Config.t -> ?policy:policy -> ?validate:bool -> ?obs:Obs.Sink.t -> Input.t -> result
(** Loops' events are rebased to program time and bracketed by
    [Loop_begin]/[Loop_end], so one sink observes the whole program. *)

val metrics : Machine.Config.t -> Input.t -> Obs.Summary.metrics
(** Re-simulate every parallel loop of the input (default policy) into
    one recording sink and decode the summary view from the events
    ({!Obs.Summary.decode}); [misspec_delayed] and [squashes] are summed
    over the loop results.  {!Obs.Summary.no_metrics} when the config
    runs sequentially. *)

val speedup : result -> float
(** [sequential_time / total_time]; 1.0 for an empty program. *)

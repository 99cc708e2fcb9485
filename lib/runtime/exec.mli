(** Execute a {!Staged.t} pipeline on real OCaml 5 domains.

    Thread mapping follows the paper's plan: [threads = 1] runs the
    sequential reference; [threads = 2] dedicates one domain to stage A
    and fuses B and C on the second; [threads >= 3] dedicates one
    domain to A, one to C, and replicates stage B on the remaining
    [threads - 2] domains (PS-DSWP).  Work distribution is round-robin:
    iteration [i] flows through the SPSC queue pair of replica
    [i mod replicas], which both keeps every queue single-producer /
    single-consumer and lets stage C restore iteration order without
    reordering buffers — so the observable output is byte-identical to
    {!Staged.run_seq} at every thread count.

    The stage roles are dispatched onto a {!Parallel.Pool} batch (one
    pool slot per role, via [parallel_for]); the pool's work-stealing
    guarantees every role reaches a domain even when a role-chunk lands
    behind a running role in some slot's deque.

    Every pipeline speculates through a {!Spec_store}, with no lock
    anywhere on the path (a pipeline with an empty store is the trivial
    case: nothing to read, write or squash).  B executes each iteration
    against the dense committed store (forwarding, when B is
    replicated, the youngest buffered write of an earlier in-flight
    iteration), logging every [(location, value)] it reads and every
    write it makes into a reusable flat log, and C — the store's only
    writer — validates at commit: every value the iteration read must
    equal the committed (i.e. sequential) value; a stale read squashes
    the iteration, which re-executes against committed state on C's
    domain before it commits.  Mis-speculation therefore costs time,
    never correctness, and the squash count is reported in {!stats}
    rather than in the output bytes (which timing must not
    influence). *)

(** Per-role time accounting.  Stall times are measured on the slow
    path only (a pop that found the ring empty, a push that found it
    full), so a smooth pipeline reads no clock for them.  How [rs_busy]
    is measured depends on [~probe]:

    - with it on, it is the sum of the role's per-item stage-body spans
      (plus squash re-execution on C), read from clocks around every
      body;
    - with it off (the default), no per-item clock is read: it is the
      role's own wall clock minus [rs_starved] and [rs_blocked], so it
      also covers queue-op and dispatch overhead.  At two domains B and
      C share one role, whose whole busy time is reported on the B row;
      the C row's [rs_busy] is then [0.].

    Either way busy, starved and blocked are disjoint parts of the
    role's run, so their sum never exceeds [stats.seconds]. *)
type role_stats = {
  rs_role : string;  (** "A", "B0".."Bn", "C" *)
  rs_items : int;  (** items this role processed *)
  rs_busy : float;  (** seconds not stalled on a queue; see above *)
  rs_starved : float;  (** seconds blocked popping an empty in-queue *)
  rs_blocked : float;  (** seconds blocked pushing a full out-queue *)
}

type stats = {
  threads : int;
  replicas : int;  (** B replica count actually used *)
  seconds : float;  (** wall clock of the pipeline section *)
  squashes : int;  (** iterations re-executed after a stale read *)
  violations : int;
      (** logged reads that commit-time validation found stale, summed
          over all iterations; [>= squashes], and [0] exactly when
          [squashes] is (a squash is caused by at least one stale read).
          Always [0] at two domains, where the fused B+C role executes
          against fully committed state. *)
  roles : role_stats array;  (** A, B replicas, C — in that order *)
}

(** One SPSC ring's traffic, derived from the producer's push records. *)
type queue_stat = {
  qs_queue : Obs.Event.queue;
  qs_slot : int;
  qs_capacity : int;
  qs_high_water : int;  (** highest occupancy any push left *)
  qs_pushes : int;  (** push records for this ring *)
}

(** Latency histograms drained from one role's {!Obs.Probe} ring.  All
    samples are durations in microseconds. *)
type role_probe = {
  rp_role : string;  (** "A", "B0".."Bn", "C" *)
  rp_stage : Obs.Hist.t;
      (** stage-body latency: dispatch (A) / run (B) / commit (C) *)
  rp_push_stall : Obs.Hist.t;  (** time blocked pushing a full ring *)
  rp_pop_stall : Obs.Hist.t;  (** time blocked popping an empty ring *)
  rp_squash : Obs.Hist.t;  (** re-execution cost after a stale read *)
  rp_validate : Obs.Hist.t;  (** commit-time read-log validation *)
}

type rings
(** The raw per-role probe rings of one run, kept for {!events}. *)

type telemetry = {
  tl_roles : role_probe array;  (** parallel to [stats.roles] *)
  tl_queues : queue_stat list;  (** in-queues then out-queues, by slot *)
  tl_dropped : int;
      (** probe records lost to ring wrap; [0], since each ring is sized
          from its role's item count *)
  tl_rings : rings;
}

type result = {
  output : string;  (** observable output; must equal [Staged.run_seq] *)
  stats : stats;
  telemetry : telemetry option;
      (** probe aggregates; present iff [~probe:true] and the run was
          actually parallel (the sequential path has no roles) *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?queue_capacity:int ->
  ?probe:bool ->
  ?span_registry:Obs.Span.t ->
  threads:int ->
  name:string ->
  Staged.t ->
  result
(** [run ~threads ~name staged] executes the pipeline on [threads]
    domains ([<= 1] means sequentially).  With [?pool] the roles run on
    the given pool (clamping the stage layout to its size); otherwise a
    dedicated pool of exactly the role count is created and shut down.
    [?queue_capacity] sizes each SPSC ring (default 64 entries, the
    paper's 32-entry queues doubled to amortize cursor traffic).
    [?probe] (default off) gives every role a private {!Obs.Probe} ring,
    the run's only recorder: stage bodies, queue pushes and pops (with
    the occupancy they left), stalls, validations, squashes and
    commits.  Each ring is sized from the items its role will process,
    so it never wraps.  After the roles join, the rings are drained
    into latency histograms and queue stats ({!result.telemetry});
    {!events} decodes them into an event stream on demand.  Probing
    never touches the output bytes — it only reads clocks and writes
    preallocated rings — so output stays byte-identical to a probe-off
    run.

    Telemetry is zero-cost when off: with [probe] off nothing is
    recorded, no per-item clock is read, and a warm run allocates
    nothing per item in the runtime beyond the stage bodies' own
    allocation.  A ships each item alone (replica [k] knows it receives
    iterations [k], [k + replicas], ...), B hands C a job (item, log,
    outcome) recycled through a return ring, and a speculative read or
    write allocates nothing; only forwarding, at [threads >= 3],
    allocates the in-flight list nodes of each published write.
    [?span_registry] receives per-role busy/starved/blocked aggregates
    under ["real/<name>/<role>"].  If a stage body raises, all queues
    are poisoned, every role unwinds, and the first exception is
    re-raised on the caller. *)

val events : telemetry -> Obs.Event.t list
(** The run's event stream, decoded from its probe rings: [Loop_begin]
    at time 0, then [Task_start]/[Task_finish] per stage body,
    [Queue_push]/[Queue_pop] with the occupancy each left,
    [Task_squash] per re-execution and [Iter_commit] per iteration,
    sorted by time (microseconds since the run started), then
    [Loop_end].  Cores are role indices (A = 0, B replicas 1..n,
    C = n + 1) and iteration [i]'s A/B/C tasks are [3i], [3i+1],
    [3i+2]. *)

val pp_telemetry : stats -> Format.formatter -> telemetry -> unit
(** Per-role latency histograms and per-queue high-water table
    (the [repro profile-real] report body). *)

val telemetry_to_json : name:string -> stats -> telemetry -> Obs.Json.t
(** The probe-dump interchange record ([{"probe_dump": 1, ...}]) that
    [Sim.Calibrate.of_probe_json] fits a calibration from.  Latencies
    are microseconds; [iterations] is the committing role's item
    count. *)

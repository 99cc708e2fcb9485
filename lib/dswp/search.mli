(** Beam / branch-and-bound planner tournament over the plan space.

    The search space is the product of

    - {b partitioner}: DAG-SCC growth ({!Partition}) vs backward slicing
      ({!Slice_partition});
    - {b breaker set}: which of the PDG's distinct dependence breakers
      the plan enables;
    - {b replication}: PS-DSWP replicated stage B vs a plain 3-stage
      DSWP pipeline;
    - {b queue capacity}: inter-stage queue depth fed to the machine
      config.

    The engine prunes in a fixed order — lint, then bound, then
    simulation — and is deliberately ignorant of the lint, scoring and
    simulation machinery: those live in libraries that themselves depend
    on [dswp] (lint) or on half the tree (sim, obs), so they are
    injected as batched {!hooks} and the wiring lives in
    [Core.Plan_search].  Everything here is deterministic: candidate
    ids order every tie-break, hooks receive batches in candidate order
    and must answer positionally, and the branch-and-bound incumbent
    only advances at wave boundaries — so the ranking is identical no
    matter how the simulate hook shards a wave across domains. *)

type partitioner = Dag_scc | Slicing

val partitioner_name : partitioner -> string
(** ["dag-scc"] / ["slicing"] — used in labels and the ranked table. *)

type candidate = {
  cand_id : int;  (** unique, orders all tie-breaks *)
  cand_label : string;
  cand_partitioner : partitioner;
  cand_breakers : Ir.Pdg.breaker list;  (** enabled breakers, deduped *)
  cand_replicate : bool;  (** false = plain 3-stage DSWP, B not replicated *)
  cand_queue_capacity : int;
  cand_seed : bool;
      (** seeds (hand / auto plans) are always simulated: exempt from
          bound and budget pruning, so the winner provably matches or
          beats them *)
}

type eval = {
  ev_bound : float;
      (** sound upper bound on the candidate's simulated speedup *)
  ev_binding : string;  (** which bound binds (attribution's label) *)
}

type sim_row = {
  sim_speedup : float;
  sim_oracle : (unit, string) result;
      (** oracle verdict on the simulated run of this candidate *)
}

type status =
  | Lint_pruned of string list  (** lint error messages *)
  | Bound_pruned  (** upper bound could not beat the incumbent *)
  | Budget_pruned  (** simulation budget exhausted *)
  | Simulated of sim_row

type outcome = {
  out_candidate : candidate;
  out_part : Partition.t;
  out_eval : eval option;  (** [None] iff lint-pruned *)
  out_status : status;
}

type counts = {
  generated : int;
  lint_pruned : int;
  bound_pruned : int;
  budget_pruned : int;
  simulated : int;
}

type result = {
  ranked : outcome list;
      (** simulated candidates by (speedup desc, bound desc, id asc),
          then pruned candidates by id *)
  counts : counts;
  winner : outcome option;  (** best simulated candidate, if any *)
}

type hooks = {
  lint : (candidate * Partition.t) list -> string list list;
      (** positional: element [i] holds the lint {e errors} for input
          [i]; [[]] means clean.  Warnings must not be reported here. *)
  measure : (candidate * Partition.t) list -> eval list;
      (** positional sound bounds for lint-clean candidates *)
  simulate : (candidate * Partition.t) list -> sim_row list;
      (** positional simulation of one wave; free to shard the batch
          across a pool as long as results come back in input order *)
}

val breaker_short : Ir.Pdg.breaker -> string
(** Short stable name of a breaker (["alias"], ["comm:<group>"], ...),
    used in candidate labels and simulation cache keys. *)

val distinct_breakers : Ir.Pdg.t -> Ir.Pdg.breaker list
(** The distinct breakers on the PDG's edges, sorted. *)

val generate : Ir.Pdg.t -> first_id:int -> candidate list
(** Enumerate the non-seed candidate space for a PDG: every subset of
    its distinct breakers (all [2^n] when [n <= 6], else the empty set,
    singletons, all-but-ones and the full set) crossed with both
    partitioners, replicated and plain stage B, and queue capacities 8
    and 256.  Ids are assigned from [first_id] in generation order;
    labels encode the coordinates. *)

val run :
  pdg:Ir.Pdg.t ->
  hooks:hooks ->
  ?mutate:(candidate -> Partition.t -> Partition.t) ->
  candidates:candidate list ->
  beam:int ->
  budget:int ->
  unit ->
  result
(** The tournament: partition every candidate (applying [mutate] — the
    corrupted-generator self-test hook — to non-seed partitions), lint
    the whole field in one batch and drop candidates with errors, score
    survivors with [measure], then simulate in waves of [beam]
    candidates ordered seeds-first / bound-descending / id-ascending.
    Before each non-seed candidate enters a wave it must (a) still fit
    the simulation [budget] and (b) have a bound strictly above the
    incumbent best simulated speedup; failures are recorded as
    [Budget_pruned] / [Bound_pruned].  Raises [Invalid_argument] when
    [beam < 1] or [budget < 0]. *)

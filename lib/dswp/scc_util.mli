(** Shared condensation-graph machinery for the partitioners.

    All three partitioners ({!Partition}'s DAG-SCC growth,
    {!Slice_partition}'s backward slicing and {!Multi_stage}'s k-stage
    chain split) reason over the same object: the DAG of strongly
    connected components of the PDG restricted to surviving edges.
    This module computes that condensation once, in one pass over nodes
    and edges, with every per-component fact the partitioners need —
    weights, parallel eligibility, adjacency both ways — and provides
    stack-safe reachability over it.

    Everything here is iterative with explicit worklists: the search
    engine partitions large generated PDGs in its inner loop, where the
    previous recursive reachability overflowed the stack on deep
    condensation chains and the [List.mem] edge dedup was quadratic on
    dense graphs. *)

type t = {
  comps : int list array;  (** component index -> member node ids, topological order *)
  comp_of : int array;  (** node id -> component index *)
  adj : int list array;  (** condensation DAG successors, deduplicated *)
  radj : int list array;  (** transpose of [adj] *)
  weight : float array;  (** summed node weight per component *)
  eligible : bool array;
      (** parallel-eligible: no surviving loop-carried edge internal to
          the component and every member node replicable *)
  dedup_probes : int;
      (** bucket lookups plus keys compared while deduplicating
          cross-component edges: a deterministic cost count, a little
          over one per surviving cross-component edge (the set keeps at
          least two buckets per edge) *)
}

val condense : Ir.Pdg.t -> surviving:(Ir.Pdg.edge -> bool) -> t
(** O(nodes + edges): SCCs via {!Ir.Pdg.sccs}, then a single edge pass
    classifying each surviving edge as cross-component (deduplicated
    through a hashed edge set, not an adjacency-list scan) or internal
    (feeding eligibility).  The set's work is reported in
    [dedup_probes]. *)

val component_count : t -> int

val reachable : int list array -> int -> bool array
(** [reachable adj v] marks every vertex reachable from [v] by a
    non-empty path (so [v] itself only if it lies on a cycle), with an
    explicit worklist — safe on chains of any depth. *)

val reach_cache : int list array -> int -> bool array
(** Memoizing wrapper around {!reachable}: each distinct source is
    explored at most once per cache.  The partitioners' B-growth loops
    query the same sources repeatedly. *)

val multi_reachable : int list array -> from:int list -> bool array
(** Vertices reachable from any of [from] by a non-empty path; sources
    are not marked unless reached from another source. *)

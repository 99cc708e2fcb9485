(** Allocation-free per-domain event recorder.

    One probe belongs to one domain: it is a preallocated flat [int]
    ring holding fixed-stride records [(kind, time, a, b)], written by
    plain stores with no synchronization and no allocation — safe on a
    runtime hot path.  Timestamps are caller-supplied integers (the
    runtime uses microseconds from its own monotonic origin; [lib/obs]
    depends on nothing, so it cannot read a clock itself).  When the
    ring wraps, the oldest records are overwritten and counted in
    {!dropped}.

    After the run — once every writing domain has been joined — the
    rings are drained on one domain: {!entries} for a single probe, or
    {!merge} for a deterministic cross-domain interleaving ordered by
    [(time, domain, seq)].  What a record means is the writer's
    business: [Runtime.Exec] decodes its rings into {!Event.t}s.

    The disabled path is {!record_opt} on [None]: one pattern match,
    no allocation, nothing written — so instrumented code can keep a
    [Probe.t option] per role and pay nothing when probing is off. *)

type t

type entry = {
  e_domain : int;  (** the owning probe's domain tag *)
  e_seq : int;  (** per-probe sequence number (0-based, pre-wrap) *)
  e_kind : int;
  e_time : int;
  e_a : int;
  e_b : int;
}

val create : ?capacity:int -> domain:int -> unit -> t
(** [capacity] is the record count the ring retains (default 8192,
    clamped to at least 1).  [domain] tags every entry drained from
    this probe. *)

val record : t -> kind:int -> time:int -> a:int -> b:int -> unit
(** Append one record.  Allocation-free; overwrites the oldest record
    once the ring is full. *)

val record_opt : t option -> kind:int -> time:int -> a:int -> b:int -> unit
(** [record] through an option: the [None] case is the zero-cost
    disabled path. *)

val count : t -> int
(** Total records ever written (including dropped ones). *)

val dropped : t -> int
(** Records lost to ring wrap. *)

val entries : t -> entry list
(** Retained records, oldest first. *)

val merge : t list -> entry list
(** All retained records of all probes, sorted by
    [(e_time, e_domain, e_seq)] — deterministic for deterministic
    record contents, whatever the domains' real interleaving was. *)

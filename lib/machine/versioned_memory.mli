(** Operational model of the versioned (TLS) memory subsystem.

    The paper assumes hardware that gives each speculative task a private
    memory version: writes are buffered per task, reads see the youngest
    value from a logically earlier version, versions commit in logical
    (iteration) order, and committing a write that a logically later task
    has already read from a stale version raises a violation on that
    task (Vachharajani et al. [33]).

    WAR and WAW hazards never conflict (privatization).  Silent stores —
    writes that do not change the committed value — are detected at commit
    and do not raise violations (Lepak & Lipasti [15]).

    This module is the semantic reference model, not an execution
    substrate: the fast path in {!Profiling.Mem_profile} must agree with
    it on which cross-task RAW dependences exist, which the test suite
    checks by property.  The real Domain runtime does not use it — its
    speculative store ([Runtime.Spec_store]) implements the part of
    this contract the runtime needs (buffered writes, forwarding from
    the youngest earlier in-flight iteration, in-order commit, value
    validation) with one writer and no lock.  Operations here are not
    thread-safe. *)

type t

type violation = { violated_task : int; loc : int; writer_task : int }

val create : ?silent_stores:bool -> unit -> t

val set_committed : t -> loc:int -> int -> unit
(** Initialize architectural state before speculation starts. *)

val begin_task : t -> task:int -> unit
(** Open a speculative version.  Tasks must be opened in logical order
    and ids must be fresh. *)

val read : t -> task:int -> loc:int -> int option
(** Value visible to the task: its own buffered write, else the youngest
    buffered write of an earlier {e open or committed} version, else
    architectural state.  Records the read for violation detection. *)

val write : t -> task:int -> loc:int -> int -> unit

val commit : t -> task:int -> violation list
(** Commit the oldest open version; raises [Invalid_argument] if [task]
    is not the oldest.  Returns violations against still-open tasks that
    read stale values of locations this task (non-silently) wrote. *)

val committed_value : t -> loc:int -> int option

val open_tasks : t -> int list
(** Logical order, oldest first. *)

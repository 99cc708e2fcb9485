(** The speculative store of a [Staged.Spec] run, with one writer and
    no lock.

    The committed state is a dense [int array] (locations are its
    indices), written only by the committing role (C) and read by the
    executing roles without a lock.  A speculative execution logs every
    [(location, value)] it read into a reusable flat {!log}, so a read
    allocates nothing; at commit C re-checks the log against the
    committed array ({!stale}), which by then holds exactly the state
    the sequential run would have read.

    With [~forwarding] (replicated B), each executed iteration also
    {!publish}es its buffered writes into per-location lists updated by
    compare-and-set, and a read of iteration [i] sees the youngest write
    of an earlier in-flight iteration — never one of [i] itself or of a
    later iteration — before falling back to committed state.
    Forwarding only saves squashes; the output never depends on it,
    because validation decides every commit.

    This store is the repo's one model of the paper's versioned memory
    (buffered writes, in-order commit, stale reads caught).  Validation
    works by value, so a silent write, or one that restores the value
    read, does not squash its reader. *)

type t

val create : forwarding:bool -> int array -> t
(** A store whose committed state is a copy of the given initial
    array.  Without [forwarding], {!publish} and {!retire} are no-ops
    and every read returns committed state. *)

val committed : t -> int -> int
(** Committed value of a location.
    @raise Invalid_argument if the location is outside the store. *)

val commit : t -> (int * int) list -> unit
(** Apply writes to committed state in list order.  Committing role
    only.  @raise Invalid_argument on a location outside the store. *)

val forward : t -> iteration:int -> int -> int
(** The value iteration [iteration] reads at a location: the youngest
    published write of an iteration [< iteration], else committed
    state.  @raise Invalid_argument if the location is outside the
    store. *)

val publish : t -> iteration:int -> (int * int) list -> unit
(** Make an executed iteration's buffered writes visible to later
    iterations' reads.  Lock-free; safe from any domain.  Writes to
    locations outside the store are skipped (a stale execution may
    compute them; validation rejects it before commit). *)

val retire : t -> iteration:int -> (int * int) list -> unit
(** Withdraw [iteration]'s published writes.  Called by the committing
    role after it has {!commit}ted the iteration, so a concurrent read
    finds the value in one place or the other. *)

(** {1 Read logs} *)

type log
(** A reusable flat buffer of one execution's [(location, value)]
    reads, plus the iteration it reads for. *)

val log_create : unit -> log

val start : log -> iteration:int -> unit
(** Empty the log for a new execution of [iteration]. *)

val read : t -> log -> int -> int
(** {!forward} for the log's iteration, recorded in the log.  Allocates
    nothing once the log has grown to the execution's read count. *)

val stale : t -> log -> int
(** Logged reads whose value differs from committed state now. *)

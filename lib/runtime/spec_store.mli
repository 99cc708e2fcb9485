(** The speculative store of a {!Staged.t} run, with one writer and no
    lock.

    The committed state is a dense [int array] (locations are its
    indices), written only by the committing role (C) and read by the
    executing roles without a lock.  A speculative execution records
    its reads and its writes in a reusable flat {!log}: every
    [(location, value)] it read, and every [(location, value)] it
    wrote, in call order.  Neither allocates once the log has grown.
    At commit C re-checks the reads against the committed array
    ({!stale}), which by then holds exactly the state the sequential
    run would have read, and then applies the writes ({!commit}).

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
    array.  Without [forwarding], {!publish} and {!retire} do nothing
    and every read returns committed state. *)

val committed : t -> int -> int
(** Committed value of a location.
    @raise Invalid_argument if the location is outside the store. *)

val forward : t -> iteration:int -> int -> int
(** The value iteration [iteration] reads at a location: the youngest
    published write of an iteration [< iteration], else committed
    state.  @raise Invalid_argument if the location is outside the
    store. *)

(** {1 Logs} *)

type log
(** One execution's reads and buffered writes, as two reusable flat
    buffers of [(location, value)] pairs, plus the iteration it runs. *)

val log_create : unit -> log

val start : log -> iteration:int -> unit
(** Empty the log for a new execution of [iteration]. *)

val read : t -> log -> int -> int
(** {!forward} for the log's iteration, recorded in the log.  A read
    never sees the execution's own writes: they are only buffered. *)

val write : log -> int -> int -> unit
(** [write log loc v] buffers a write of [v] to [loc].  Any location is
    accepted here; {!commit} checks the range. *)

val stale : t -> log -> int
(** Logged reads whose value differs from committed state now. *)

val commit : t -> log -> unit
(** Apply the log's writes to committed state in call order.
    Committing role only.  @raise Invalid_argument on a location
    outside the store. *)

val publish : t -> log -> unit
(** Make an executed iteration's buffered writes visible to later
    iterations' reads.  Lock-free; safe from any domain.  Writes to
    locations outside the store are skipped (a stale execution may make
    them; validation rejects it before commit).  Allocates only the
    list nodes it publishes, so nothing when there is nothing to
    publish. *)

val retire : t -> log -> unit
(** Withdraw the log's published writes.  Called by the committing
    role after it has {!commit}ted the iteration, so a concurrent read
    finds the value in one place or the other.  Allocates nothing when
    the log holds no writes. *)

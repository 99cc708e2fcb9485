(** Lock-free bounded single-producer single-consumer ring queue — the
    real inter-stage channel of the Domain pipeline runtime.

    The layout follows {!Simcore.Ring}: a flat circular buffer indexed
    by monotonically increasing head/tail counters masked to a
    power-of-two capacity.  Cells hold items unboxed (an [Obj.t] array,
    no [Some] per push).  Head (consumer cursor) and tail (producer
    cursor) are atomics padded to a cache line each — separately
    allocated atomics alone would sit side by side in the heap — and
    each side keeps a cache-padded snapshot of the other's cursor
    ([int array] cells spaced a cache line apart), so the fast path of
    both push and pop touches no cache line the other domain writes
    beyond the cell itself: the producer
    re-reads the real head only when its snapshot says the ring looks
    full, the consumer re-reads the real tail only when its snapshot
    says the ring looks empty (the classic SPSC cursor-caching design).

    Publication safety comes from the OCaml 5 memory model: the plain
    buffer store in [push] happens-before the [Atomic.set] of the tail,
    which happens-before the consumer's [Atomic.get] of the same tail —
    so the consumer never observes an unpublished cell.  The symmetric
    argument on head covers cell reuse.

    Exactly one domain may push and exactly one may pop; nothing checks
    this (that is what makes the queue cheap).  No operation allocates:
    a push/pop round trip of an immediate costs zero minor words, and
    pop reports an empty or finished ring by raising a constant
    exception ([raise_notrace]) instead of returning a boxed variant. *)

type 'a t

exception Poisoned
(** Raised by blocking operations on a queue another role poisoned —
    the pipeline is being torn down after an error. *)

exception Empty
(** Raised by {!try_pop} when no item is available yet. *)

exception Closed
(** Raised by {!try_pop} and {!pop} once the queue is both closed and
    drained: the end of the stream. *)

val create : ?capacity:int -> unit -> 'a t
(** Capacity is rounded up to a power of two; default 64.  The queue
    keeps no statistics of its own: a probed {!Exec.run} records each
    push's and pop's resulting {!length} in the acting role's
    {!Obs.Probe} ring, and derives high-water marks and push counts
    from those records. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Occupancy snapshot: reads both cursors.  Exact when both sides are
    quiescent; read right after its own push (or pop) it is the
    occupancy that operation left, up to the other side's concurrent
    progress. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the ring is full.  @raise Poisoned on a poisoned queue. *)

val push : 'a t -> 'a -> unit
(** Spin (with [Domain.cpu_relax]) until space is available.
    @raise Poisoned if the queue is poisoned while waiting. *)

val try_pop : 'a t -> 'a
(** The next item.
    @raise Empty when the ring holds no item yet.
    @raise Closed once the queue is both closed and drained.
    @raise Poisoned on a poisoned queue. *)

val pop : 'a t -> 'a
(** Spin until an item arrives.
    @raise Closed once the queue is closed and drained.
    @raise Poisoned if the queue is poisoned while waiting. *)

val close : 'a t -> unit
(** Producer signals end of stream.  Items already in the ring remain
    poppable. *)

val poison : 'a t -> unit
(** Error teardown: every current and future operation on the queue
    raises {!Poisoned}.  Safe from any domain. *)

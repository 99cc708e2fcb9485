(** An executable A|B|C pipeline decomposition of a workload.

    Where {!Benchmarks.Study} describes a benchmark as an instrumented
    {e sequential} run whose parallel execution is only simulated, a
    [Staged.t] is the same loop cut into stages that actually run:

    - {b A} ([produce]): the sequential produce stage.  Called with
      iterations in ascending order from a single domain; any carried
      state (input cursor, RNG, mode flags) lives in its closure, so a
      fresh value of {!t} must be built per run.
    - {b B} ([transform]): the replicable parallel stage.  It may read
      and write a shared dense integer store through [read] and
      [write], with the paper's versioned-memory semantics: reads see
      pre-iteration state, writes are buffered and apply at commit in
      call order ({!Exec} speculates on them).  A pipeline that shares
      no state has an empty store and a body that ignores both.
    - {b C} ([consume]): the sequential in-order consume stage, folding
      results into the observable output buffer.

    The observable output of a run is the final buffer contents, byte
    for byte; {!run_seq} is the sequential reference every parallel
    execution must reproduce exactly. *)

type ('i, 'r) stages = {
  iterations : int;
  init : int array;
      (** Initial committed store; [[||]] when the pipeline shares no
          state.  Locations are its indices: a read or write of a
          location outside [0 .. Array.length init - 1] raises
          [Invalid_argument] (once validation has shown the access is
          not an artefact of a stale speculative read). *)
  produce : int -> 'i;  (** called in order 0..iterations-1 by stage A *)
  transform : read:(int -> int) -> write:(int -> int -> unit) -> 'i -> 'r;
      (** Stage B body.  [read loc] returns the pre-iteration value of
          [loc] (never the iteration's own writes); [write loc v]
          buffers a write.  Must be a function of the item and the
          values [read] returned — it may be re-executed after a
          mis-speculation squash. *)
  consume : Buffer.t -> int -> 'r -> unit;  (** in iteration order on C *)
  finish : read:(int -> int) -> Buffer.t -> unit;
      (** Trailing summary after the last iteration; may inspect the
          final committed store. *)
}

type t = Pipeline : ('i, 'r) stages -> t

val iterations : t -> int

val run_seq : t -> string
(** The sequential reference execution: per iteration in order,
    produce, transform against the committed store, apply its writes,
    consume — all on the calling domain. *)

(** {1 Digest helpers shared by the staged benchmarks} *)

val mix : int -> int -> int
(** Deterministic 62-bit hash combine (splitmix-style), identical on
    every domain and box. *)

val mix_string : int -> string -> int

val hex : int -> string
(** Fixed-width lowercase hex of the masked 62-bit value. *)

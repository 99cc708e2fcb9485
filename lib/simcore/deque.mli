(** Mutable double-ended FIFO with amortized O(1) operations.

    The simulator's per-core in-queues need cheap append at the tail
    (dispatch), cheap removal at the head (issue), and occasional
    re-insertion at the head (squash re-queues a task for
    re-execution).  A two-list banker's queue under a mutable record
    gives all three without the O(n) cost of [l @ [x]]. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** O(1): walks no list. *)

val walked : 'a t -> int
(** List cells the deque has traversed so far: reversing one end's list
    into the other when that end runs dry, and {!to_list}.  A
    deterministic cost count, which tests bound instead of timing. *)

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** Append at the tail. *)

val push_front : 'a t -> 'a -> unit
(** Insert at the head (next to be popped). *)

val peek_front : 'a t -> 'a option

val pop_front : 'a t -> 'a option

val peek_back : 'a t -> 'a option

val pop_back : 'a t -> 'a option
(** Remove at the tail — a work-stealing thief takes the oldest entries
    from the back while the owner pushes and pops at the front.
    Amortized O(1) when one end dominates; [length] stays O(1) always. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Head-first. *)

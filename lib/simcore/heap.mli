(** Binary min-heap keyed by an integer priority.

    The boxed reference semantics for {!Iheap}: the simulator's event
    queues use [Iheap], and the test suite checks it against this
    module.  Ties are broken by insertion order, as in [Iheap]. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the (priority, element) pair with the smallest
    priority; among equal priorities the earliest-inserted wins. *)

val peek_min : 'a t -> (int * 'a) option

val clear : 'a t -> unit

exception Poisoned

exception Empty

exception Closed

(* Cache-line padding, in words: 16 words is 128 bytes on 64-bit, which
   also covers the adjacent-line prefetcher that pairs 64-byte lines. *)
let pad = 16

(* [copy_as_padded o] is a shallow copy of block [o] with trailing
   padding words, so that nothing allocated next to it can share the
   cache line of its fields.  Two consecutive [Atomic.make] calls
   allocate adjacent 2-word blocks in the minor heap (and promotion
   keeps same-size blocks packed in one major-heap pool), so without
   this the producer's tail and the consumer's head very likely share
   a line and every push invalidates the consumer's cursor read.
   OCaml 5.1 has no [Atomic.make_contended]; this is the trick of
   multicore-magic's [copy_as_padded].  Atomic operations touch only
   field 0, and the GC scans the padding as ordinary unit fields. *)
let copy_as_padded (o : 'a) : 'a =
  let o = Obj.repr o in
  let size = Obj.size o in
  let p = Obj.new_block (Obj.tag o) (size + pad - 1) in
  for i = 0 to size - 1 do
    Obj.set_field p i (Obj.field o i)
  done;
  Obj.obj p

(* Cells hold the item itself as an [Obj.t] (no [Some] box per push);
   a drained cell holds the immediate [nil] so it keeps nothing live.
   The array is created with an immediate, so it is never a flat float
   array and any item, float included, is stored as a plain pointer. *)
let nil = Obj.repr ()

(* Snapshot cells live at index 0 of [pad]-word int arrays, so the
   producer-written snapshot and the consumer-written snapshot sit on
   different cache lines; the head/tail atomics are padded copies for
   the same reason (see [copy_as_padded]). *)
type 'a t = {
  buf : Obj.t array;
  mask : int;
  head : int Atomic.t;  (* next index to pop *)
  tail : int Atomic.t;  (* next index to push *)
  head_snap : int array;  (* producer's cached view of head *)
  tail_snap : int array;  (* consumer's cached view of tail *)
  closed : bool Atomic.t;
  poisoned : bool Atomic.t;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(capacity = 64) () =
  let cap = pow2 (max 1 capacity) 1 in
  let head = copy_as_padded (Atomic.make 0) in
  let tail = copy_as_padded (Atomic.make 0) in
  {
    buf = Array.make cap nil;
    mask = cap - 1;
    head;
    tail;
    head_snap = Array.make pad 0;
    tail_snap = Array.make pad 0;
    closed = Atomic.make false;
    poisoned = Atomic.make false;
  }

let capacity t = t.mask + 1

let length t = max 0 (Atomic.get t.tail - Atomic.get t.head)

let check_poison t = if Atomic.get t.poisoned then raise Poisoned

(* Whether the ring is full for a push at [tail].  The producer's head
   snapshot is refreshed from the real head only when it says full. *)
let full t tail =
  tail - t.head_snap.(0) > t.mask
  && begin
    t.head_snap.(0) <- Atomic.get t.head;
    tail - t.head_snap.(0) > t.mask
  end

let try_push t x =
  check_poison t;
  let tail = Atomic.get t.tail in
  if full t tail then false
  else begin
    t.buf.(tail land t.mask) <- Obj.repr x;
    (* Release: publishes the buffer store above to the consumer. *)
    Atomic.set t.tail (tail + 1);
    true
  end

(* Bounded spin, then sleep: on a machine with fewer free cores than
   domains a pure [cpu_relax] loop burns the whole OS timeslice the
   peer needs to make progress. *)
let backoff k =
  if k < 512 then Domain.cpu_relax () else Unix.sleepf 5e-5

(* Top-level recursion, not a local loop: without flambda a local
   function capturing [t] and [x] is a closure allocated per call. *)
let rec push_from t x k =
  if not (try_push t x) then begin
    backoff k;
    push_from t x (k + 1)
  end

let push t x = push_from t x 0

(* Whether the ring is empty for a pop at [head].  The consumer's tail
   snapshot is refreshed from the real tail only when it says empty. *)
let empty t head =
  head >= t.tail_snap.(0)
  && begin
    t.tail_snap.(0) <- Atomic.get t.tail;
    head >= t.tail_snap.(0)
  end

let try_pop t =
  check_poison t;
  let head = Atomic.get t.head in
  if empty t head then
    if Atomic.get t.closed && Atomic.get t.tail = head then raise_notrace Closed
    else raise_notrace Empty
  else begin
    let i = head land t.mask in
    let v = t.buf.(i) in
    (* Drop the reference so the cell doesn't keep the item live until
       the ring wraps. *)
    t.buf.(i) <- nil;
    Atomic.set t.head (head + 1);
    Obj.obj v
  end

let rec pop_from t k =
  match try_pop t with
  | x -> x
  | exception Empty ->
    backoff k;
    pop_from t (k + 1)

let pop t = pop_from t 0

let close t = Atomic.set t.closed true

let poison t = Atomic.set t.poisoned true

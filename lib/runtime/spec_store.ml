(* In-flight writes to one location, youngest iteration first; equal
   iterations keep the later write of an execution first, so a lookup
   sees what applying its writes in call order would leave. *)
type writes = Nil | W of { iter : int; value : int; next : writes }

type t = {
  committed : int array;  (* written only by the committing role *)
  inflight : writes Atomic.t array;  (* per location; empty without forwarding *)
}

let create ~forwarding init =
  {
    committed = Array.copy init;
    inflight =
      (if forwarding then Array.init (Array.length init) (fun _ -> Atomic.make Nil) else [||]);
  }

let committed t loc = t.committed.(loc)

let rec youngest_before ws ~iteration ~default =
  match ws with
  | Nil -> default
  | W w -> if w.iter < iteration then w.value else youngest_before w.next ~iteration ~default

(* The in-flight list is loaded before the committed cell.  A writer
   retired between the two loads has already stored its value into the
   committed array (see [retire]), so either load sees it; and a read
   that still goes stale is caught by validation, so forwarding can only
   save squashes, never decide the output. *)
let forward t ~iteration loc =
  if Array.length t.inflight = 0 then t.committed.(loc)
  else begin
    let ws = Atomic.get t.inflight.(loc) in
    youngest_before ws ~iteration ~default:t.committed.(loc)
  end

(* A growable flat buffer of [(location, value)] pairs, allocated on
   first use, so an execution that never reads or writes costs none. *)
type pairs = { mutable buf : int array; mutable len : int }

let pairs () = { buf = [||]; len = 0 }

let add p loc v =
  if p.len + 2 > Array.length p.buf then begin
    let buf = Array.make (max 16 (2 * Array.length p.buf)) 0 in
    Array.blit p.buf 0 buf 0 p.len;
    p.buf <- buf
  end;
  p.buf.(p.len) <- loc;
  p.buf.(p.len + 1) <- v;
  p.len <- p.len + 2

type log = { reads : pairs; writes : pairs; mutable iteration : int }

let log_create () = { reads = pairs (); writes = pairs (); iteration = 0 }

let start log ~iteration =
  log.reads.len <- 0;
  log.writes.len <- 0;
  log.iteration <- iteration

let read t log loc =
  let v = forward t ~iteration:log.iteration loc in
  add log.reads loc v;
  v

let write log loc v = add log.writes loc v

let stale t log =
  let r = log.reads and n = ref 0 in
  for k = 0 to (r.len / 2) - 1 do
    if t.committed.(r.buf.(2 * k)) <> r.buf.((2 * k) + 1) then incr n
  done;
  !n

let commit t log =
  let w = log.writes in
  for k = 0 to (w.len / 2) - 1 do
    t.committed.(w.buf.(2 * k)) <- w.buf.((2 * k) + 1)
  done

let rec insert ~iteration v = function
  | W w when w.iter > iteration -> W { w with next = insert ~iteration v w.next }
  | ws -> W { iter = iteration; value = v; next = ws }

(* Entries of [iteration] are the oldest still listed when it retires,
   since iterations retire in order; the walk stops at the first older
   one and returns the list itself when nothing changed. *)
let rec remove ~iteration ws =
  match ws with
  | Nil -> Nil
  | W w ->
    if w.iter = iteration then remove ~iteration w.next
    else if w.iter < iteration then ws
    else begin
      let next = remove ~iteration w.next in
      if next == w.next then ws else W { w with next }
    end

(* The compare-and-set loops are top-level functions over the cell,
   not a generic update taking a closure, so a call allocates only the
   list nodes it links in. *)
let rec push_write cell ~iteration v =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (insert ~iteration v old)) then
    push_write cell ~iteration v

let rec withdraw cell ~iteration =
  let old = Atomic.get cell in
  let next = remove ~iteration old in
  if next != old && not (Atomic.compare_and_set cell old next) then withdraw cell ~iteration

(* A speculative execution may write a location outside the store (its
   reads were stale); the write is not published, and the committing
   role raises only if the validated execution still makes it.  Without
   forwarding [inflight] is empty, so nothing is in range. *)
let in_range t loc = loc >= 0 && loc < Array.length t.inflight

let publish t log =
  let w = log.writes in
  for k = 0 to (w.len / 2) - 1 do
    let loc = w.buf.(2 * k) in
    if in_range t loc then push_write t.inflight.(loc) ~iteration:log.iteration w.buf.((2 * k) + 1)
  done

let retire t log =
  let w = log.writes in
  for k = 0 to (w.len / 2) - 1 do
    let loc = w.buf.(2 * k) in
    if in_range t loc then withdraw t.inflight.(loc) ~iteration:log.iteration
  done

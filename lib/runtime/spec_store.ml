(* In-flight writes to one location, youngest iteration first; equal
   iterations keep the later write of a write list first, so a lookup
   sees what sequential application of the list would leave. *)
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

let rec commit t = function
  | [] -> ()
  | (loc, v) :: rest ->
    t.committed.(loc) <- v;
    commit t rest

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

let rec update cell f =
  let old = Atomic.get cell in
  let next = f old in
  if next != old && not (Atomic.compare_and_set cell old next) then update cell f

(* A speculative write list may name a location outside the store (it
   was computed from stale reads); it is not published, and the
   committing role raises only if the validated writes still do. *)
let in_range t loc = loc >= 0 && loc < Array.length t.inflight

let publish t ~iteration writes =
  List.iter
    (fun (loc, v) -> if in_range t loc then update t.inflight.(loc) (insert ~iteration v))
    writes

let retire t ~iteration writes =
  List.iter
    (fun (loc, _) -> if in_range t loc then update t.inflight.(loc) (remove ~iteration))
    writes

type log = { mutable buf : int array; mutable len : int; mutable iteration : int }

let log_create () = { buf = Array.make 64 0; len = 0; iteration = 0 }

let start log ~iteration =
  log.len <- 0;
  log.iteration <- iteration

let grow log =
  let buf = Array.make (2 * Array.length log.buf) 0 in
  Array.blit log.buf 0 buf 0 log.len;
  log.buf <- buf

let read t log loc =
  let v = forward t ~iteration:log.iteration loc in
  if log.len + 2 > Array.length log.buf then grow log;
  log.buf.(log.len) <- loc;
  log.buf.(log.len + 1) <- v;
  log.len <- log.len + 2;
  v

let stale t log =
  let n = ref 0 in
  let i = ref 0 in
  while !i < log.len do
    if t.committed.(log.buf.(!i)) <> log.buf.(!i + 1) then incr n;
    i := !i + 2
  done;
  !n

(* In-memory span recorder for the benchmark's own calls into each layer.

   A span records its name, wall-clock start and end, the span that was
   open when it began (its parent), the group (one study or pipeline of
   one pass) and the minor words the calling domain allocated inside it.
   Spans stay in memory and are written out once, at the end of the run.
   When the recorder is disabled, [span] only calls its thunk: no clock
   read and no allocation. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  group : int;  (** 0 outside any study or pipeline *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable group : int;
  mutable next_group : int;
}

let create ~enabled =
  {
    enabled;
    origin = Unix.gettimeofday ();
    spans = [];
    stack = [];
    next_id = 1;
    group = 0;
    next_group = 1;
  }

let enabled t = t.enabled

(* Id the next span will get: spans opened from now on have ids >= it. *)
let next_id t = t.next_id

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.spans <-
          { id; parent; group = t.group; name; t0; t1; minor_words = Gc.minor_words () -. w0 }
          :: t.spans)
  end

(* Run [f] as one study or pipeline: its span and every span under it
   share a fresh group id. *)
let group t name f =
  if not t.enabled then f ()
  else begin
    let saved = t.group in
    t.group <- t.next_group;
    t.next_group <- t.next_group + 1;
    Fun.protect (fun () -> span t name f) ~finally:(fun () -> t.group <- saved)
  end

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the time its direct children
   cover.  Spans are opened and closed on one domain, so children never
   overlap each other. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    (spans t)

(* Chrome trace_event JSON, the format Obs.Trace_event writes: one
   complete ("X") slice per span, microsecond timestamps from the
   recorder's creation, identity and parentage in [args]. *)
let to_chrome t =
  let us x = Obs.Json.Float ((x -. t.origin) *. 1e6) in
  let event s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str s.name);
        ("ph", Obs.Json.Str "X");
        ("ts", us s.t0);
        ("dur", Obs.Json.Float (duration s *. 1e6));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.Int s.id);
              ("parent", Obs.Json.Int s.parent);
              ("group", Obs.Json.Int s.group);
              ("minor_words", Obs.Json.Float s.minor_words);
            ] );
      ]
  in
  Obs.Json.Obj
    [
      ("traceEvents", Obs.Json.Arr (List.map event (spans t)));
      ("displayTimeUnit", Obs.Json.Str "ms");
    ]

(* Self time per span name, folded into an Obs.Span registry (one
   aggregate row per name: count, total, mean, max). *)
let self_registry t =
  let reg = Obs.Span.create () in
  List.iter (fun (s, self) -> Obs.Span.record reg s.name self) (self_times t);
  reg

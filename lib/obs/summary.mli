(** Machine-readable summaries: the simulator's counters, gauges and
    occupancy series, decoded from its {!Event} stream, plus span
    aggregates, as JSON or a flat CSV table.  The bench harness writes
    both next to [BENCH_pipeline.json]; any run can dump its own. *)

type metrics = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;  (** (last value, high water) *)
  series : (string * (int * int) list) list;  (** [(time, value)] samples *)
}
(** Name-sorted, so output is deterministic. *)

val no_metrics : metrics
(** All three lists empty: what a run the simulator executed
    sequentially (one core) reports. *)

val decode : slots:int -> misspec_delayed:int -> squashes:int -> Event.t list -> metrics
(** The view of one or more pipeline-simulator runs, recorded with
    loop-local times and [slots] phase-B queue slots:
    - counters [busy/A], [busy/B], [busy/C] sum each phase's
      [Task_start] work, less the unexecuted remainder
      ([work - elapsed]) of every [Task_squash];
      [misspec_delayed] and [squashes] are passed through;
    - gauges [in_queue_occupancy] and [out_queue_occupancy] carry the
      occupancy of the queue's last push/pop and its maximum (0 when
      the queue saw no operation);
    - series [in_queue/<s>] and [out_queue/<s>], one per slot, carry
      [(time, occupancy)] after every push/pop on that slot, in event
      order — empty for a slot that saw none. *)

val metrics_json : metrics -> Json.t

val span_json : Span.row -> Json.t

val to_json :
  ?metrics:metrics -> ?spans:Span.row list -> ?extra:(string * Json.t) list -> unit -> Json.t
(** [extra] fields are appended at the top level — the bench harness
    attaches per-study attribution blocks this way. *)

val csv_header : string

val to_csv : ?metrics:metrics -> ?spans:Span.row list -> unit -> string
(** Flat table: [kind,name,value,high_water,count,total_seconds,
    mean_seconds,max_seconds]; cells a kind lacks stay empty.  Series
    are JSON-only. *)

val write_file : string -> string -> unit

val write_json :
  ?metrics:metrics -> ?spans:Span.row list -> ?extra:(string * Json.t) list -> string -> unit

val write_csv : ?metrics:metrics -> ?spans:Span.row list -> string -> unit

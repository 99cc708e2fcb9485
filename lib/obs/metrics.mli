(** Named counters, gauges and time series for one simulation run.

    Replaces the simulator's ad-hoc [ref]s: the pipeline creates (or is
    handed) a registry, binds its counters/gauges once before the event
    loop, and bumps the returned handles directly — an increment is a
    mutable-field write, exactly what the old refs cost.

    A registry is single-writer: each simulation owns its own (or the
    caller passes a fresh one per run).  Snapshots may be taken after
    the run from any domain. *)

type counter

type gauge
(** Tracks both the current value and the high-water mark. *)

type series
(** A [(time, value)] sequence, e.g. one queue slot's occupancy. *)

type t

val create : ?sampling:bool -> unit -> t
(** [sampling] (default false) gates series recording: with it off,
    {!series} handles exist but callers are expected to skip
    {!sample} — see {!sampling}. *)

val sampling : t -> bool

val counter : t -> string -> counter
(** Find-or-create by name. *)

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int

val counter_name : counter -> string

val gauge : t -> string -> gauge

val observe : gauge -> int -> unit
(** Set the current value; the high-water mark follows automatically. *)

val gauge_value : gauge -> int

val high_water : gauge -> int

val gauge_name : gauge -> string

val series : t -> string -> series

val sample : series -> time:int -> int -> unit

val samples : series -> (int * int) list
(** In recording order. *)

val series_name : series -> string

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * (int * int)) list;  (** (value, high water) *)
  snap_series : (string * (int * int) list) list;
}

val snapshot : t -> snapshot
(** Name-sorted, so output is deterministic. *)

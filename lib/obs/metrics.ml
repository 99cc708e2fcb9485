type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : int; mutable g_high : int }

type series = { s_name : string; mutable s_rev : (int * int) list; mutable s_len : int }

type t = {
  sampling : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  series_tbl : (string, series) Hashtbl.t;
}

let create ?(sampling = false) () =
  {
    sampling;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series_tbl = Hashtbl.create 16;
  }

let sampling t = t.sampling

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.add t.counters name c;
    c

let add c n = c.c_value <- c.c_value + n

let incr c = add c 1

let value c = c.c_value

let counter_name c = c.c_name

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0; g_high = 0 } in
    Hashtbl.add t.gauges name g;
    g

let observe g v =
  g.g_value <- v;
  if v > g.g_high then g.g_high <- v

let gauge_value g = g.g_value

let high_water g = g.g_high

let gauge_name g = g.g_name

let series t name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> s
  | None ->
    let s = { s_name = name; s_rev = []; s_len = 0 } in
    Hashtbl.add t.series_tbl name s;
    s

let sample s ~time v =
  s.s_rev <- (time, v) :: s.s_rev;
  s.s_len <- s.s_len + 1

let samples s = List.rev s.s_rev

let series_name s = s.s_name

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * (int * int)) list;  (* value, high water *)
  snap_series : (string * (int * int) list) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  {
    snap_counters = sorted_bindings t.counters (fun c -> c.c_value);
    snap_gauges = sorted_bindings t.gauges (fun g -> (g.g_value, g.g_high));
    snap_series = sorted_bindings t.series_tbl samples;
  }

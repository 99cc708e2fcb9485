(* One timed pass over a workload: its counters and its checked
   operations.  A failed check is counted and described, never raised,
   so one wrong output cannot abort the run. *)

type t = {
  counters : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
  mutable units : (string * float) list;
      (** wall-clock seconds of each study or pipeline, newest first *)
}

let create () =
  { counters = Hashtbl.create 64; attempted = 0; failed = 0; failures = []; units = [] }

let add t name v =
  Hashtbl.replace t.counters name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

(* Run one study or pipeline and record its wall-clock under [name].
   An exception it raises counts as a failed check and yields
   [default]. *)
let unit t name f ~default =
  let t0 = Unix.gettimeofday () in
  let x =
    try f ()
    with e ->
      check t false (name ^ ": raised " ^ Printexc.to_string e);
      default
  in
  t.units <- (name, Unix.gettimeofday () -. t0) :: t.units;
  x

(* Sample statistics over a run's passes. *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* Median of the samples recorded under [name] in (name, sample) pairs. *)
let median_of name pairs = median (List.filter_map (fun (n, x) -> if n = name then Some x else None) pairs)

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

let ratio a b = if b = 0. then 0. else a /. b

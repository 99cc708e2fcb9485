type metrics = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  series : (string * (int * int) list) list;
}

let no_metrics = { counters = []; gauges = []; series = [] }

let decode ~slots ~misspec_delayed ~squashes events =
  let busy = Array.make 3 0 in
  (* task -> (phase index, work) of its latest start: a squash withdraws
     the part of that run the core never executed. *)
  let started = Hashtbl.create 256 in
  let last = Array.make 2 0 and high = Array.make 2 0 in
  let samples = Array.init 2 (fun _ -> Array.make slots []) in
  let occupancy time queue slot occ =
    let q = match queue with Event.In_queue -> 0 | Event.Out_queue -> 1 in
    last.(q) <- occ;
    if occ > high.(q) then high.(q) <- occ;
    samples.(q).(slot) <- (time, occ) :: samples.(q).(slot)
  in
  List.iter
    (function
      | Event.Task_start { task; phase; work; _ } ->
        let p = match phase with 'A' -> 0 | 'B' -> 1 | _ -> 2 in
        busy.(p) <- busy.(p) + work;
        Hashtbl.replace started task (p, work)
      | Event.Task_squash { task; elapsed; _ } ->
        let p, work = Hashtbl.find started task in
        busy.(p) <- busy.(p) - (work - elapsed)
      | Event.Queue_push { time; queue; slot; occupancy = occ; _ }
      | Event.Queue_pop { time; queue; slot; occupancy = occ; _ } ->
        occupancy time queue slot occ
      | _ -> ())
    events;
  let series q name =
    List.init slots (fun s -> (Printf.sprintf "%s/%d" name s, List.rev samples.(q).(s)))
  in
  {
    counters =
      [
        ("busy/A", busy.(0));
        ("busy/B", busy.(1));
        ("busy/C", busy.(2));
        ("misspec_delayed", misspec_delayed);
        ("squashes", squashes);
      ];
    gauges =
      [
        ("in_queue_occupancy", (last.(0), high.(0)));
        ("out_queue_occupancy", (last.(1), high.(1)));
      ];
    series =
      List.sort (fun (a, _) (b, _) -> compare a b) (series 0 "in_queue" @ series 1 "out_queue");
  }

let metrics_json m =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) m.counters));
      ( "gauges",
        Json.Obj
          (List.map
             (fun (n, (v, h)) ->
               (n, Json.Obj [ ("value", Json.Int v); ("high_water", Json.Int h) ]))
             m.gauges) );
      ( "series",
        Json.Obj
          (List.map
             (fun (n, pts) ->
               ( n,
                 Json.Arr
                   (List.map (fun (t, v) -> Json.Arr [ Json.Int t; Json.Int v ]) pts) ))
             m.series) );
    ]

let span_json (r : Span.row) =
  Json.Obj
    [
      ("name", Json.Str r.Span.name);
      ("count", Json.Int r.Span.count);
      ("total_seconds", Json.Float r.Span.total_s);
      ("mean_seconds", Json.Float r.Span.mean_s);
      ("max_seconds", Json.Float r.Span.max_span_s);
    ]

let to_json ?metrics ?(spans = []) ?(extra = []) () =
  let fields = [ ("spans", Json.Arr (List.map span_json spans)) ] @ extra in
  let fields =
    match metrics with Some m -> ("metrics", metrics_json m) :: fields | None -> fields
  in
  Json.Obj fields

(* CSV: one flat table, a [kind] discriminator column, empty cells where
   a column does not apply to the row's kind. *)
let csv_header = "kind,name,value,high_water,count,total_seconds,mean_seconds,max_seconds"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ?metrics ?(spans = []) () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "counter,%s,%d,,,,,\n" (csv_escape n) v))
      m.counters;
    List.iter
      (fun (n, (v, h)) ->
        Buffer.add_string buf (Printf.sprintf "gauge,%s,%d,%d,,,,\n" (csv_escape n) v h))
      m.gauges);
  List.iter
    (fun (r : Span.row) ->
      Buffer.add_string buf
        (Printf.sprintf "span,%s,,,%d,%.6f,%.6f,%.6f\n" (csv_escape r.Span.name) r.Span.count
           r.Span.total_s r.Span.mean_s r.Span.max_span_s))
    spans;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_json ?metrics ?spans ?extra path =
  write_file path (Json.to_string (to_json ?metrics ?spans ?extra ()) ^ "\n")

let write_csv ?metrics ?spans path = write_file path (to_csv ?metrics ?spans ())

(* Tests for the lib/obs observability layer: JSON round-trips, the
   summary metrics decoded from simulator events, event sinks, Chrome trace export from a real
   registry study, wall-clock span aggregation across pool domains, and
   the summary emitters. *)

module J = Obs.Json
module S = Obs.Sink
module E = Obs.Event

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let json_round_trip () =
  let v =
    J.Obj
      [
        ("name", J.Str "pipe \"quoted\"\n\ttab");
        ("count", J.Int 42);
        ("ratio", J.Float 2.5);
        ("flag", J.Bool true);
        ("none", J.Null);
        ("xs", J.Arr [ J.Int 1; J.Int (-2); J.Arr []; J.Obj [] ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let json_rejects_garbage () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1, 2,]";
  bad "{\"a\": 1} trailing";
  bad "\"unterminated"

(* Every malformed input must come back as a located Error — never an
   exception, never a silent prefix-parse. *)
let json_error_paths () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
      (* Errors carry a byte position, either "at byte N: reason" or
         "reason at N". *)
      let contains needle =
        let n = String.length e and nn = String.length needle in
        let rec go i = i + nn <= n && (String.sub e i nn = needle || go (i + 1)) in
        go 0
      in
      let located = contains "at byte" || contains " at " in
      Alcotest.(check bool) (Printf.sprintf "error for %S is located (%s)" s e) true located
  in
  (* truncated literals *)
  bad "tru";
  bad "truX";
  bad "fals";
  bad "nul";
  (* truncated numbers and structures *)
  bad "-";
  bad "[1";
  bad "{\"a\"";
  bad "{\"a\":}";
  (* trailing garbage after a complete value *)
  bad "[] []";
  bad "1 2";
  (* bad and truncated escapes *)
  bad "\"\\x\"";
  bad "\"\\u12\"";
  bad "\"\\u123g\"";
  bad "\"\\";
  (* control character inside a string *)
  bad "\"a\tb\""

(* Nesting past the parser's cap must fail with an error, not blow the
   stack; nesting under it must still work. *)
let json_deep_nesting () =
  let deep n = String.make n '[' ^ String.make n ']' in
  (match J.parse (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected 100-deep nesting: %s" e);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match J.parse (deep 600) with
  | Ok _ -> Alcotest.fail "accepted 600-deep nesting"
  | Error e -> Alcotest.(check bool) "names the cap" true (contains e "nesting"));
  (* An unclosed 100k-bracket prefix must also return, not crash. *)
  match J.parse (String.make 100_000 '[') with
  | Ok _ -> Alcotest.fail "accepted unclosed brackets"
  | Error _ -> ()

let json_accessors () =
  let v = J.Obj [ ("a", J.Int 3); ("b", J.Arr [ J.Str "x" ]) ] in
  Alcotest.(check (option int)) "member int" (Some 3) (Option.bind (J.member "a" v) J.to_int);
  Alcotest.(check (option string)) "nested str" (Some "x")
    (Option.bind
       (Option.bind (Option.bind (J.member "b" v) J.to_list) (fun l -> List.nth_opt l 0))
       J.to_str);
  Alcotest.(check (option int)) "missing" None (Option.bind (J.member "zzz" v) J.to_int)

(* ------------------------------------------------------------------ *)
(* Metrics: the summary view decoded from the event stream             *)

(* A hand-built stream: phase-A task 0 runs 5 units; phase-B task 1 is
   started with 8, squashed after 3, then restarted with 8; phase-C task
   2 runs 4.  Queue events carry the occupancy after the operation. *)
let crafted_events =
  let start time task phase work =
    E.Task_start { time; task; core = 0; phase; iteration = 0; work }
  in
  let push time queue slot occupancy = E.Queue_push { time; queue; slot; occupancy; task = 0 } in
  let pop time queue slot occupancy = E.Queue_pop { time; queue; slot; occupancy; task = 0 } in
  [
    start 0 0 'A' 5;
    push 5 E.In_queue 0 1;
    push 6 E.In_queue 1 2;
    pop 7 E.In_queue 0 1;
    start 7 1 'B' 8;
    E.Task_squash { time = 10; task = 1; core = 0; elapsed = 3 };
    start 10 1 'B' 8;
    push 18 E.Out_queue 0 1;
    pop 19 E.Out_queue 0 0;
    start 19 2 'C' 4;
    E.Wake { time = 23 };
  ]

let metrics_counters_and_gauges () =
  let m = Obs.Summary.decode ~slots:2 ~misspec_delayed:2 ~squashes:1 crafted_events in
  let counter name = List.assoc name m.Obs.Summary.counters in
  Alcotest.(check int) "busy/A" 5 (counter "busy/A");
  Alcotest.(check int) "busy/B less the squashed remainder" 11 (counter "busy/B");
  Alcotest.(check int) "busy/C" 4 (counter "busy/C");
  Alcotest.(check int) "misspec_delayed passed through" 2 (counter "misspec_delayed");
  Alcotest.(check int) "squashes passed through" 1 (counter "squashes");
  Alcotest.(check (pair int int)) "in-queue last and high water" (1, 2)
    (List.assoc "in_queue_occupancy" m.Obs.Summary.gauges);
  Alcotest.(check (pair int int)) "out-queue last and high water" (0, 1)
    (List.assoc "out_queue_occupancy" m.Obs.Summary.gauges);
  let quiet = Obs.Summary.decode ~slots:2 ~misspec_delayed:0 ~squashes:0 [] in
  Alcotest.(check (pair int int)) "untouched queue gauge is zero" (0, 0)
    (List.assoc "in_queue_occupancy" quiet.Obs.Summary.gauges)

(* A series gains a sample only when its slot sees a push or pop. *)
let metrics_sampling_gate () =
  let m = Obs.Summary.decode ~slots:2 ~misspec_delayed:0 ~squashes:0 crafted_events in
  let series name = List.assoc name m.Obs.Summary.series in
  Alcotest.(check (list (pair int int))) "in_queue/0 samples in order" [ (5, 1); (7, 1) ]
    (series "in_queue/0");
  Alcotest.(check (list (pair int int))) "in_queue/1" [ (6, 2) ] (series "in_queue/1");
  Alcotest.(check (list (pair int int))) "out_queue/0" [ (18, 1); (19, 0) ] (series "out_queue/0");
  Alcotest.(check (list (pair int int))) "idle slot has no samples" [] (series "out_queue/1");
  Alcotest.(check bool) "no_metrics has no series" true
    (Obs.Summary.no_metrics.Obs.Summary.series = [])

let metrics_snapshot_sorted () =
  let m = Obs.Summary.decode ~slots:12 ~misspec_delayed:0 ~squashes:0 crafted_events in
  let sorted names = List.sort compare names = names in
  Alcotest.(check bool) "counters name-sorted" true (sorted (List.map fst m.Obs.Summary.counters));
  Alcotest.(check bool) "gauges name-sorted" true (sorted (List.map fst m.Obs.Summary.gauges));
  Alcotest.(check bool) "series name-sorted" true (sorted (List.map fst m.Obs.Summary.series));
  Alcotest.(check int) "one series per queue and slot" 24 (List.length m.Obs.Summary.series)

let gauge_high (m : Obs.Summary.metrics) name = snd (List.assoc name m.Obs.Summary.gauges)

(* Every registry study at small scale, threads {2, 3, 16}, both
   policies: per loop, the view decoded from the loop's own events
   reproduces the result's queue high-water marks and total busy work.
   Each loop is simulated twice — in program order with one shared
   recorder, then alone in reverse order — and both results must agree:
   a loop_result depends on nothing that ran before it. *)
let metrics_decoded_view_agrees () =
  List.iter
    (fun (study : Benchmarks.Study.t) ->
      let profile = study.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
      let input =
        (Core.Framework.build ~plan:study.Benchmarks.Study.plan profile).Core.Framework.input
      in
      let loops =
        List.filter_map
          (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
          input.Sim.Input.segments
      in
      List.iter
        (fun (threads, policy) ->
          let cfg = Machine.Config.default ~cores:threads in
          let shared = S.record (S.recorder ()) in
          let in_order =
            List.map (fun l -> Sim.Pipeline.run_loop cfg ~policy ~obs:shared l) loops
          in
          let alone =
            List.rev_map
              (fun l ->
                let recorder = S.recorder () in
                let r = Sim.Pipeline.run_loop cfg ~policy ~obs:(S.record recorder) l in
                (r, S.events recorder))
              (List.rev loops)
          in
          List.iter2
            (fun (l : Sim.Input.loop) (ordered, (r, events)) ->
              let what =
                Printf.sprintf "%s %s t=%d %s" study.Benchmarks.Study.spec_name l.Sim.Input.name
                  threads
                  (match policy.Sim.Pipeline.misspec with
                  | Sim.Pipeline.Squash -> "squash"
                  | Sim.Pipeline.Serialize -> "serialize")
              in
              Alcotest.(check bool) (what ^ ": independent of earlier loops") true (ordered = r);
              let m =
                Obs.Summary.decode
                  ~slots:(Array.length r.Sim.Pipeline.b_tasks_per_core)
                  ~misspec_delayed:r.Sim.Pipeline.misspec_delayed
                  ~squashes:r.Sim.Pipeline.squashes events
              in
              Alcotest.(check int) (what ^ ": in-queue high water")
                r.Sim.Pipeline.in_queue_high_water
                (gauge_high m "in_queue_occupancy");
              Alcotest.(check int) (what ^ ": out-queue high water")
                r.Sim.Pipeline.out_queue_high_water
                (gauge_high m "out_queue_occupancy");
              let phase p = List.assoc ("busy/" ^ p) m.Obs.Summary.counters in
              Alcotest.(check int) (what ^ ": busy") (Array.fold_left ( + ) 0 r.Sim.Pipeline.busy)
                (phase "A" + phase "B" + phase "C"))
            loops (List.combine in_order alone))
        (List.concat_map
           (fun t ->
             [
               (t, Sim.Pipeline.default_policy);
               (t, { Sim.Pipeline.default_policy with misspec = Sim.Pipeline.Squash });
             ])
           [ 2; 3; 16 ]))
    Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Sinks and events                                                    *)

let sink_null_is_disabled () =
  Alcotest.(check bool) "disabled" false (S.enabled S.null);
  (* Emitting into the null sink is a no-op, not an error. *)
  S.emit S.null (E.Wake { time = 0 })

let sink_recorder_and_offset () =
  let r = S.recorder () in
  let sink = S.offset 100 (S.record r) in
  S.emit sink (E.Task_finish { time = 7; task = 3; core = 1 });
  S.emit sink (E.Wake { time = 1 });
  Alcotest.(check int) "two events" 2 (S.count r);
  Alcotest.(check (list int)) "times rebased" [ 107; 101 ] (List.map E.time (S.events r))

(* ------------------------------------------------------------------ *)
(* Trace export from a real registry study                             *)

let gzip_input =
  lazy
    (let study =
       match Benchmarks.Registry.find "164.gzip" with Some s -> s | None -> assert false
     in
     let profile = study.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
     (Core.Framework.build ~plan:study.Benchmarks.Study.plan profile).Core.Framework.input)

let trace_export_registry_study () =
  let recorder = S.recorder () in
  ignore
    (Sim.Pipeline.run
       (Machine.Config.default ~cores:16)
       ~obs:(S.record recorder) (Lazy.force gzip_input));
  Alcotest.(check bool) "events recorded" true (S.count recorder > 0);
  let json = Obs.Trace_event.export (S.events recorder) in
  (* The serialized trace must parse back... *)
  let reparsed =
    match J.parse (J.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.failf "trace does not re-parse: %s" e
  in
  let events =
    match Option.bind (J.member "traceEvents" reparsed) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phase e = Option.bind (J.member "ph" e) J.to_str in
  (* ...with complete slices spread over more than one core track... *)
  let slice_tids =
    List.filter_map
      (fun e -> if phase e = Some "X" then Option.bind (J.member "tid" e) J.to_int else None)
      events
  in
  Alcotest.(check bool) "has slices" true (slice_tids <> []);
  Alcotest.(check bool) "slices on several cores" true
    (List.length (List.sort_uniq compare slice_tids) >= 2);
  (* ...and counter tracks for both queue directions. *)
  let counter_names =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if phase e = Some "C" then Option.bind (J.member "name" e) J.to_str else None)
         events)
  in
  let has prefix =
    List.exists
      (fun n -> String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix)
      counter_names
  in
  Alcotest.(check bool) "in-queue counters" true (has "in-queue");
  Alcotest.(check bool) "out-queue counters" true (has "out-queue")

let trace_null_sink_changes_nothing () =
  (* The default (null) sink must leave results identical to an
     instrumented run — observability is read-only. *)
  let cfg = Machine.Config.default ~cores:8 in
  let input = Lazy.force gzip_input in
  let plain = Sim.Pipeline.run cfg input in
  let recorder = S.recorder () in
  let observed = Sim.Pipeline.run cfg ~obs:(S.record recorder) input in
  Alcotest.(check bool) "same result" true (plain = observed);
  Alcotest.(check bool) "yet events flowed" true (S.count recorder > 0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span_aggregates () =
  let t = Obs.Span.create () in
  Obs.Span.record t "phase" 1.0;
  Obs.Span.record t "phase" 3.0;
  (match Obs.Span.snapshot t with
  | [ row ] ->
    Alcotest.(check string) "name" "phase" row.Obs.Span.name;
    Alcotest.(check int) "count" 2 row.Obs.Span.count;
    Alcotest.(check (float 1e-9)) "total" 4.0 row.Obs.Span.total_s;
    Alcotest.(check (float 1e-9)) "mean" 2.0 row.Obs.Span.mean_s;
    Alcotest.(check (float 1e-9)) "max" 3.0 row.Obs.Span.max_span_s
  | rows -> Alcotest.failf "expected 1 aggregate, got %d" (List.length rows));
  Obs.Span.reset t;
  Alcotest.(check int) "reset" 0 (List.length (Obs.Span.snapshot t))

let span_time_records_on_raise () =
  let t = Obs.Span.create () in
  (try Obs.Span.time ~registry:t "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.Span.snapshot t with
  | [ row ] -> Alcotest.(check int) "recorded despite raise" 1 row.Obs.Span.count
  | _ -> Alcotest.fail "span not recorded"

let span_across_pool_domains () =
  (* Span.record takes a mutex, so workers on different domains fold
     into one registry without losing updates. *)
  let t = Obs.Span.create () in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map_list pool
           (fun i ->
             Obs.Span.record t "worker" (float_of_int i);
             i)
           (List.init 64 Fun.id)));
  match Obs.Span.snapshot t with
  | [ row ] ->
    Alcotest.(check int) "all 64 recorded" 64 row.Obs.Span.count;
    Alcotest.(check (float 1e-6)) "total is the sum" 2016.0 row.Obs.Span.total_s
  | rows -> Alcotest.failf "expected 1 aggregate, got %d" (List.length rows)

(* A synthetic stream exercising the export paths the registry study
   doesn't pin down: dispatch/wake instants and out-queue counters. *)
let trace_instants_and_out_queue () =
  let events =
    [
      E.Task_start { time = 0; task = 0; core = 0; phase = 'A'; iteration = 0; work = 4 };
      E.Task_finish { time = 4; task = 0; core = 0 };
      E.Dispatch { time = 4; task = 1; slot = 2 };
      E.Wake { time = 5 };
      E.Queue_push { time = 6; queue = E.Out_queue; slot = 2; occupancy = 1; task = 1 };
      E.Queue_pop { time = 9; queue = E.Out_queue; slot = 2; occupancy = 0; task = 1 };
    ]
  in
  let json = Obs.Trace_event.export events in
  let evs =
    match Option.bind (J.member "traceEvents" json) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let field k e = J.member k e in
  let str k e = Option.bind (field k e) J.to_str in
  let int k e = Option.bind (field k e) J.to_int in
  let find name =
    match List.find_opt (fun e -> str "name" e = Some name) evs with
    | Some e -> e
    | None -> Alcotest.failf "no event named %S" name
  in
  let dispatch = find "dispatch 1->slot 2" in
  Alcotest.(check (option string)) "dispatch is an instant" (Some "i") (str "ph" dispatch);
  Alcotest.(check (option int)) "dispatch time" (Some 4) (int "ts" dispatch);
  Alcotest.(check (option int)) "dispatch slot arg" (Some 2)
    (Option.bind (field "args" dispatch) (int "slot"));
  let wake = find "wake" in
  Alcotest.(check (option string)) "wake is an instant" (Some "i") (str "ph" wake);
  Alcotest.(check (option int)) "wake time" (Some 5) (int "ts" wake);
  (* Both push and pop sample the same out-queue counter track with the
     occupancy after the operation. *)
  let samples =
    List.filter (fun e -> str "name" e = Some "out-queue 2" && str "ph" e = Some "C") evs
  in
  Alcotest.(check (list (pair (option int) (option int))))
    "out-queue track samples (ts, occupancy)"
    [ (Some 6, Some 1); (Some 9, Some 0) ]
    (List.map (fun e -> (int "ts" e, Option.bind (field "args" e) (int "occupancy"))) samples)

(* ------------------------------------------------------------------ *)
(* Summary emitters                                                    *)

let summary_emits_csv_and_json () =
  let m =
    Obs.Summary.decode ~slots:1 ~misspec_delayed:0 ~squashes:3
      [
        E.Task_start { time = 0; task = 0; core = 1; phase = 'B'; iteration = 0; work = 4 };
        E.Queue_push { time = 0; queue = E.In_queue; slot = 0; occupancy = 5; task = 0 };
      ]
  in
  let spans = [ { Obs.Span.name = "phase"; count = 2; total_s = 4.0; mean_s = 2.0; max_span_s = 3.0 } ] in
  let csv = Obs.Summary.to_csv ~metrics:m ~spans () in
  (match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
    Alcotest.(check string) "header" Obs.Summary.csv_header header;
    Alcotest.(check int) "one row per counter, gauge and span" 8 (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  let json = Obs.Summary.to_json ~metrics:m ~spans () in
  match J.parse (J.to_string json) with
  | Ok v ->
    Alcotest.(check (option int)) "counter survives" (Some 3)
      (Option.bind
         (Option.bind (J.member "metrics" v) (J.member "counters"))
         (fun c -> Option.bind (J.member "squashes" c) J.to_int));
    let metric group name field =
      Option.bind (Option.bind (J.member "metrics" v) (J.member group)) (J.member name)
      |> Fun.flip Option.bind field
    in
    Alcotest.(check (option int)) "busy decoded" (Some 4) (metric "counters" "busy/B" J.to_int);
    Alcotest.(check (option int)) "gauge high water" (Some 5)
      (metric "gauges" "in_queue_occupancy" (fun g ->
           Option.bind (J.member "high_water" g) J.to_int));
    Alcotest.(check (option int)) "one sample per slot series" (Some 1)
      (metric "series" "in_queue/0" (fun l -> Option.map List.length (J.to_list l)));
    Alcotest.(check (option int)) "one span row" (Some 1)
      (Option.map List.length (Option.bind (J.member "spans" v) J.to_list))
  | Error e -> Alcotest.failf "summary json invalid: %s" e

(* ------------------------------------------------------------------ *)
(* Hist                                                                *)

(* Bucket edges: 0 -> bucket 0, [2^(k-1), 2^k) -> bucket k; the exact
   count/sum/min/max ride alongside, so mean is exact and quantile is
   an upper bound clamped to the true max. *)
let hist_buckets_and_stats () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 0; 1; 2; 3; 4; 1000 ];
  Alcotest.(check int) "count" 6 (Obs.Hist.count h);
  Alcotest.(check int) "sum" 1010 (Obs.Hist.sum h);
  Alcotest.(check int) "min" 0 (Obs.Hist.min_value h);
  Alcotest.(check int) "max" 1000 (Obs.Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean exact" (1010. /. 6.) (Obs.Hist.mean h);
  (* p100 is clamped to the true max, not bucket 10's edge (1023). *)
  Alcotest.(check int) "p100 clamped" 1000 (Obs.Hist.quantile h 1.0);
  (* target 3 lands in bucket 2 ([2,4)), whose largest value is 3. *)
  Alcotest.(check int) "p50 upper bound" 3 (Obs.Hist.quantile h 0.5)

let hist_json_round_trip () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 3; 17; 17; 4096; 0; -5 ];
  match Obs.Hist.of_json (Obs.Hist.to_json h) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok h' ->
    Alcotest.(check int) "count" (Obs.Hist.count h) (Obs.Hist.count h');
    Alcotest.(check int) "sum" (Obs.Hist.sum h) (Obs.Hist.sum h');
    Alcotest.(check int) "min" (Obs.Hist.min_value h) (Obs.Hist.min_value h');
    Alcotest.(check int) "max" (Obs.Hist.max_value h) (Obs.Hist.max_value h');
    Alcotest.(check int) "p95" (Obs.Hist.quantile h 0.95) (Obs.Hist.quantile h' 0.95)

let hist_of_json_rejects_inconsistent () =
  let bad j =
    match Obs.Hist.of_json j with
    | Ok _ -> Alcotest.failf "accepted %s" (J.to_string j)
    | Error _ -> ()
  in
  (* bucket sum disagrees with count *)
  bad
    (J.Obj
       [
         ("count", J.Int 2);
         ("sum", J.Int 3);
         ("min", J.Int 1);
         ("max", J.Int 2);
         ("buckets", J.Arr [ J.Arr [ J.Int 1; J.Int 1 ] ]);
       ]);
  (* bucket index out of range *)
  bad
    (J.Obj
       [
         ("count", J.Int 1);
         ("sum", J.Int 1);
         ("min", J.Int 1);
         ("max", J.Int 1);
         ("buckets", J.Arr [ J.Arr [ J.Int 99; J.Int 1 ] ]);
       ])

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)

let probe_ring_wrap () =
  let p = Obs.Probe.create ~capacity:8 ~domain:0 () in
  for i = 0 to 19 do
    Obs.Probe.record p ~kind:1 ~time:i ~a:(10 * i) ~b:i
  done;
  Alcotest.(check int) "count is total writes" 20 (Obs.Probe.count p);
  Alcotest.(check int) "dropped to wrap" 12 (Obs.Probe.dropped p);
  let es = Obs.Probe.entries p in
  Alcotest.(check int) "retains capacity" 8 (List.length es);
  Alcotest.(check (list int)) "oldest retained first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Probe.entry) -> e.Obs.Probe.e_time) es);
  List.iter
    (fun (e : Obs.Probe.entry) ->
      Alcotest.(check int) "payload survives" (10 * e.Obs.Probe.e_time)
        e.Obs.Probe.e_a;
      Alcotest.(check int) "seq matches time here" e.Obs.Probe.e_time
        e.Obs.Probe.e_seq)
    es

(* The probe exists to sit on the runtime hot path, so both the
   disabled path (record_opt None) and the enabled path must run
   without allocating a word.  Gc.minor_words is exact for the
   allocations of the measuring domain. *)
let probe_paths_allocation_free () =
  let p = Obs.Probe.create ~capacity:64 ~domain:0 () in
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  ignore (measure (fun () -> ()));
  let disabled =
    measure (fun () ->
        for i = 0 to 9_999 do
          Obs.Probe.record_opt None ~kind:0 ~time:i ~a:i ~b:i
        done)
  in
  Alcotest.(check (float 0.)) "disabled path allocates nothing" 0. disabled;
  let enabled =
    measure (fun () ->
        for i = 0 to 9_999 do
          Obs.Probe.record p ~kind:0 ~time:i ~a:i ~b:i
        done)
  in
  Alcotest.(check (float 0.)) "enabled path allocates nothing" 0. enabled

(* Cross-domain drain: per-domain probes filled from real domains merge
   into one deterministic order keyed by (time, domain, seq), whatever
   the actual interleaving was. *)
let probe_cross_domain_merge () =
  let mk d = Obs.Probe.create ~capacity:64 ~domain:d () in
  let probes = [ mk 0; mk 1; mk 2 ] in
  let fill p d =
    (* Same timestamps in every domain: the domain tag must break the
       ties, giving one canonical interleaving. *)
    for i = 0 to 9 do
      Obs.Probe.record p ~kind:d ~time:(i * 2) ~a:d ~b:i
    done
  in
  (match probes with
  | [ p0; p1; p2 ] ->
    fill p0 0;
    let d1 = Domain.spawn (fun () -> fill p1 1) in
    let d2 = Domain.spawn (fun () -> fill p2 2) in
    Domain.join d1;
    Domain.join d2
  | _ -> assert false);
  let es = Obs.Probe.merge probes in
  Alcotest.(check int) "all records" 30 (List.length es);
  let expected =
    List.concat_map
      (fun i -> List.map (fun d -> (i * 2, d, i)) [ 0; 1; 2 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  Alcotest.(check (list (triple int int int))) "deterministic (time, domain, seq)"
    expected
    (List.map
       (fun (e : Obs.Probe.entry) ->
         (e.Obs.Probe.e_time, e.Obs.Probe.e_domain, e.Obs.Probe.e_seq))
       es)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick json_round_trip;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "error paths located" `Quick json_error_paths;
          Alcotest.test_case "deep nesting rejected" `Quick json_deep_nesting;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick metrics_counters_and_gauges;
          Alcotest.test_case "sampling gate" `Quick metrics_sampling_gate;
          Alcotest.test_case "snapshot sorted" `Quick metrics_snapshot_sorted;
          Alcotest.test_case "decoded view agrees with loop results" `Quick
            metrics_decoded_view_agrees;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null disabled" `Quick sink_null_is_disabled;
          Alcotest.test_case "recorder and offset" `Quick sink_recorder_and_offset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "registry study exports" `Quick trace_export_registry_study;
          Alcotest.test_case "null sink is read-only" `Quick trace_null_sink_changes_nothing;
          Alcotest.test_case "instants and out-queue track" `Quick trace_instants_and_out_queue;
        ] );
      ( "spans",
        [
          Alcotest.test_case "aggregates" `Quick span_aggregates;
          Alcotest.test_case "records on raise" `Quick span_time_records_on_raise;
          Alcotest.test_case "across pool domains" `Quick span_across_pool_domains;
        ] );
      ("summary", [ Alcotest.test_case "csv and json" `Quick summary_emits_csv_and_json ]);
      ( "hist",
        [
          Alcotest.test_case "buckets and stats" `Quick hist_buckets_and_stats;
          Alcotest.test_case "json round trip" `Quick hist_json_round_trip;
          Alcotest.test_case "rejects inconsistent json" `Quick
            hist_of_json_rejects_inconsistent;
        ] );
      ( "probe",
        [
          Alcotest.test_case "ring wrap" `Quick probe_ring_wrap;
          Alcotest.test_case "paths allocation-free" `Quick probe_paths_allocation_free;
          Alcotest.test_case "cross-domain merge" `Quick probe_cross_domain_merge;
        ] );
    ]

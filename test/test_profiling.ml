(* Tests for the instrumentation context and the memory profiler,
   including the property that the profiler's RAW dependences are
   exactly the reads the runtime's speculative store finds stale. *)

module P = Profiling.Profile
module M = Profiling.Mem_profile
module S = Runtime.Spec_store

(* ------------------------------------------------------------------ *)
(* Profile structure                                                   *)

let profile_basic_trace () =
  let p = P.create ~name:"t" in
  P.serial_work p 10;
  P.begin_loop p "l";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  P.work p 5;
  P.end_task p;
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.work p 20;
  P.end_task p;
  P.end_loop p;
  P.serial_work p 3;
  let t = P.trace p in
  Alcotest.(check int) "total work" 38 (Ir.Trace.total_work t);
  Alcotest.(check int) "segments" 3 (List.length t.Ir.Trace.segments);
  Alcotest.(check bool) "valid" true (Ir.Trace.validate t = Ok ())

let profile_loc_interning () =
  let p = P.create ~name:"t" in
  let a = P.loc p "x" in
  let b = P.loc p "x" in
  let c = P.loc p "y" in
  Alcotest.(check int) "same name same id" a b;
  Alcotest.(check bool) "different name" true (a <> c);
  Alcotest.(check string) "reverse" "x" (P.loc_name p a);
  Alcotest.(check (option int)) "lookup" (Some c) (P.loc_id p "y");
  Alcotest.(check (option int)) "missing" None (P.loc_id p "z")

let profile_no_nested_loops () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  Alcotest.check_raises "nested loop" (Invalid_argument "Profile.begin_loop: loops do not nest")
    (fun () -> P.begin_loop p "b")

let profile_no_nested_tasks () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  Alcotest.check_raises "nested task" (Invalid_argument "Profile.begin_task: tasks do not nest")
    (fun () -> ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ()))

let profile_iteration_monotonic () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  ignore (P.begin_task p ~iteration:3 ~phase:Ir.Task.A ());
  P.end_task p;
  Alcotest.check_raises "iteration went backward"
    (Invalid_argument "Profile.begin_task: iterations must be non-decreasing") (fun () ->
      ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.A ()))

let profile_trace_requires_closed () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  Alcotest.check_raises "open loop"
    (Invalid_argument "Profile.trace: a loop or task is still open") (fun () ->
      ignore (P.trace p))

let profile_commutative_no_nest () =
  let p = P.create ~name:"t" in
  Alcotest.check_raises "nested commutative"
    (Invalid_argument "Profile.commutative: sections do not nest") (fun () ->
      P.commutative p ~group:"g" (fun () -> P.commutative p ~group:"h" (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Memory profiler                                                     *)

(* Helper: run a scripted loop of two tasks and return the cross-task
   edges. *)
let run_two_tasks script =
  let p = P.create ~name:"t" in
  let l = P.loc p "shared" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  script `First p l;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  script `Second p l;
  P.end_task p;
  P.end_loop p;
  M.analyze (P.log_of p "loop")

let mem_raw_edge () =
  let edges =
    run_two_tasks (fun which p l ->
        match which with `First -> P.write p l 42 | `Second -> P.read p l)
  in
  Alcotest.(check int) "one edge" 1 (List.length edges);
  let e = List.hd edges in
  Alcotest.(check int) "src" 0 e.M.src;
  Alcotest.(check int) "dst" 1 e.M.dst

let mem_iteration_distance () =
  let p = P.create ~name:"t" in
  let l = P.loc p "shared" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 42;
  P.end_task p;
  ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let log = P.log_of p "loop" in
  let iteration_of = function 0 -> 0 | _ -> 2 in
  (match M.analyze ~iteration_of log with
  | [ e ] -> Alcotest.(check (option int)) "distance recorded" (Some 2) e.M.distance
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es));
  match M.analyze log with
  | [ e ] -> Alcotest.(check (option int)) "no mapping: no distance" None e.M.distance
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es)

let mem_no_war_waw () =
  (* Second task writes (WAW) and the first only reads before any write
     (no producer): privatization means no edges at all. *)
  let edges =
    run_two_tasks (fun which p l ->
        match which with `First -> P.read p l | `Second -> P.write p l 1)
  in
  Alcotest.(check int) "no edges" 0 (List.length edges)

let mem_silent_store_filtered () =
  let p = P.create ~name:"t" in
  let l = P.loc p "s" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 5;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.write p l 5 (* silent: same value *);
  P.end_task p;
  ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let log = P.log_of p "loop" in
  let with_hw = M.analyze log in
  Alcotest.(check int) "silent-store hardware: reader depends on task 0" 1
    (List.length with_hw);
  Alcotest.(check int) "src is the original writer" 0 (List.hd with_hw).M.src;
  let without = M.analyze ~config:{ M.silent_stores = false } log in
  Alcotest.(check int) "without hardware: depends on task 1" 1 (List.hd without).M.src

let mem_commutative_group_tagged () =
  let p = P.create ~name:"t" in
  let l = P.loc p "seed" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.commutative p ~group:"rng" (fun () -> P.write p l 1);
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.commutative p ~group:"rng" (fun () -> P.read p l);
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "one edge" 1 (List.length edges);
  Alcotest.(check (option string)) "tagged with group" (Some "rng") (List.hd edges).M.group

let mem_mixed_groups_not_tagged () =
  let p = P.create ~name:"t" in
  let l = P.loc p "x" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.commutative p ~group:"g1" (fun () -> P.write p l 1);
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.commutative p ~group:"g2" (fun () -> P.read p l);
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check (option string)) "different groups: untagged" None (List.hd edges).M.group

let mem_value_prediction () =
  let p = P.create ~name:"t" in
  let l = P.loc p "status" in
  P.begin_loop p "loop";
  for i = 0 to 3 do
    ignore (P.begin_task p ~iteration:i ~phase:Ir.Task.B ());
    if i > 0 then P.read p l;
    P.write p l 7 (* would be silent except the first *);
    P.end_task p
  done;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  (* Under silent stores only task 0's write survives, so reads in tasks
     2 and 3 still depend on task 0.  The first cross-task read is a cold
     miss; subsequent ones observe the same value: predicted. *)
  let predicted = List.filter (fun e -> e.M.predicted) edges in
  let cold = List.filter (fun e -> not e.M.predicted) edges in
  Alcotest.(check int) "cold misses" 1 (List.length cold);
  Alcotest.(check int) "predicted" 2 (List.length predicted)

let mem_initial_values_seed_silence () =
  (* A location initialized before the loop makes an identical in-loop
     store silent. *)
  let p = P.create ~name:"t" in
  let l = P.loc p "flag" in
  P.write p l 9 (* outside any loop: architectural init *);
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 9;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "silent in-loop store: no cross-task edge" 0 (List.length edges)

let mem_cross_iteration_filter () =
  let p = P.create ~name:"t" in
  let l = P.loc p "x" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  P.write p l 1;
  P.end_task p;
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let trace = P.trace p in
  let loop = Ir.Trace.find_loop trace "loop" in
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "two edges" 2 (List.length edges);
  Alcotest.(check int) "one crosses iterations" 1
    (List.length (M.cross_iteration loop edges))

(* The speculative store validates by value.  Tasks [0 .. n-1] write
   the given values to one location, set to [init] before the loop;
   task [n] then reads it.  Returns whether the profiler reports an edge
   into the reader without and with silent stores, and how many of the
   reader's reads [Spec_store.stale] flags when it ran against the
   initial state and the writers committed in order. *)
let read_after_writes ~init writes =
  let p = P.create ~name:"t" in
  let l = P.loc p "x" in
  P.write p l init;
  P.begin_loop p "loop";
  List.iteri
    (fun i vs ->
      ignore (P.begin_task p ~iteration:i ~phase:Ir.Task.B ());
      List.iter (P.write p l) vs;
      P.end_task p)
    writes;
  let n = List.length writes in
  let reader = P.begin_task p ~iteration:n ~phase:Ir.Task.B () in
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let log = P.log_of p "loop" in
  let edge silent_stores =
    List.exists (fun e -> e.M.dst = reader) (M.analyze ~config:{ M.silent_stores } log)
  in
  let store = S.create ~forwarding:false [| init |] in
  let reads = S.log_create () in
  S.start reads ~iteration:n;
  ignore (S.read store reads 0);
  List.iter (fun vs -> S.commit store (List.map (fun v -> (0, v)) vs)) writes;
  (edge false, edge true, S.stale store reads)

let stale_by_value () =
  let check label ~init writes expected =
    Alcotest.(check (triple bool bool int)) label expected (read_after_writes ~init writes)
  in
  check "new value: edge, stale" ~init:0 [ [ 5 ] ] (true, true, 1);
  check "same value: edge only without silent stores, not stale" ~init:7 [ [ 7 ] ]
    (true, false, 0);
  (* ABA: the RAW edge exists, but the value read is the value
     committed, so validation (rightly) keeps the execution. *)
  check "ABA: edge, not stale" ~init:0 [ [ 3 ]; [ 0 ] ] (true, true, 0)

(* Property: the profiler's cross-task RAW edges are exactly the reads
   the runtime's speculative store catches, with every task fully
   overlapped.  Each task executes against the initial committed state
   (no forwarding): a read of a location the task already wrote comes
   from its own write buffer, as in a Spec body under [Runtime.Exec];
   every other read is logged through [Spec_store.read], one log per
   location.  Tasks then validate and commit in order.  A logged read
   of [l] by task [i] is stale iff an earlier task wrote [l], which is
   when the profiler (silent stores off) reports an edge into [i] at
   [l].  Validation works by value and cannot see a write that
   restores the initial value, so the initial store lies outside the
   generated write range and every write changes its location;
   [stale_by_value] pins the restoring case. *)
let profiler_agrees_with_spec_store =
  let nlocs = 3 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"profiler RAW = stale reads"
       ~print:QCheck2.Print.(list (triple int int (option int)))
       QCheck2.Gen.(
         list_size (int_range 1 30)
           (triple (int_bound 3) (int_bound (nlocs - 1)) (option (int_bound 5))))
       (fun ops ->
         (* (task, loc, Some v = write / None = read); each task runs
            its ops in list order, tasks in ascending order. *)
         let tasks = List.sort_uniq compare (List.map (fun (t, _, _) -> t) ops) in
         let ops_of t =
           List.filter_map (fun (t', l, op) -> if t' = t then Some (l, op) else None) ops
         in
         let p = P.create ~name:"prop" in
         let locs = Array.init nlocs (fun i -> P.loc p (Printf.sprintf "l%d" i)) in
         P.begin_loop p "loop";
         let ids =
           List.mapi
             (fun idx t ->
               let id = P.begin_task p ~iteration:idx ~phase:Ir.Task.B () in
               List.iter
                 (function l, Some v -> P.write p locs.(l) v | l, None -> P.read p locs.(l))
                 (ops_of t);
               P.end_task p;
               id)
             tasks
         in
         P.end_loop p;
         let edges = M.analyze ~config:{ M.silent_stores = false } (P.log_of p "loop") in
         let store = S.create ~forwarding:false (Array.make nlocs (-1)) in
         let runs =
           List.map2
             (fun id t ->
               let logs =
                 Array.init nlocs (fun _ ->
                     let g = S.log_create () in
                     S.start g ~iteration:id;
                     g)
               in
               let writes =
                 List.fold_left
                   (fun writes (l, op) ->
                     match op with
                     | Some v -> (l, v) :: writes
                     | None ->
                       if not (List.mem_assoc l writes) then
                         ignore (S.read store logs.(l) l);
                       writes)
                   [] (ops_of t)
               in
               (id, logs, List.rev writes))
             ids tasks
         in
         List.for_all
           (fun (id, logs, writes) ->
             let agree l =
               S.stale store logs.(l) > 0
               = List.exists (fun e -> e.M.dst = id && e.M.loc = locs.(l)) edges
             in
             let ok = List.for_all agree (List.init nlocs Fun.id) in
             S.commit store writes;
             ok)
           runs))

let () =
  Alcotest.run "profiling"
    [
      ( "profile",
        [
          Alcotest.test_case "basic trace" `Quick profile_basic_trace;
          Alcotest.test_case "loc interning" `Quick profile_loc_interning;
          Alcotest.test_case "no nested loops" `Quick profile_no_nested_loops;
          Alcotest.test_case "no nested tasks" `Quick profile_no_nested_tasks;
          Alcotest.test_case "iteration monotonic" `Quick profile_iteration_monotonic;
          Alcotest.test_case "trace requires closed" `Quick profile_trace_requires_closed;
          Alcotest.test_case "commutative no nest" `Quick profile_commutative_no_nest;
        ] );
      ( "mem-profile",
        [
          Alcotest.test_case "RAW edge" `Quick mem_raw_edge;
          Alcotest.test_case "iteration distance" `Quick mem_iteration_distance;
          Alcotest.test_case "no WAR/WAW" `Quick mem_no_war_waw;
          Alcotest.test_case "silent store" `Quick mem_silent_store_filtered;
          Alcotest.test_case "commutative tag" `Quick mem_commutative_group_tagged;
          Alcotest.test_case "mixed groups" `Quick mem_mixed_groups_not_tagged;
          Alcotest.test_case "value prediction" `Quick mem_value_prediction;
          Alcotest.test_case "initial values" `Quick mem_initial_values_seed_silence;
          Alcotest.test_case "cross-iteration filter" `Quick mem_cross_iteration_filter;
          Alcotest.test_case "stale by value" `Quick stale_by_value;
          profiler_agrees_with_spec_store;
        ] );
    ]

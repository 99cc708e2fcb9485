(* Tests for tasks, dependences, traces, and PDGs. *)

let mk_task id iteration phase work =
  Ir.Task.make ~id ~iteration ~phase ~work ()

(* ------------------------------------------------------------------ *)
(* Task                                                                *)

let task_phase_order () =
  Alcotest.(check bool) "A < B" true (Ir.Task.compare_phase Ir.Task.A Ir.Task.B < 0);
  Alcotest.(check bool) "B < C" true (Ir.Task.compare_phase Ir.Task.B Ir.Task.C < 0);
  Alcotest.(check int) "A = A" 0 (Ir.Task.compare_phase Ir.Task.A Ir.Task.A)

let task_rejects_negative () =
  Alcotest.check_raises "negative work" (Invalid_argument "Task.make: negative work")
    (fun () -> ignore (Ir.Task.make ~id:0 ~iteration:0 ~phase:Ir.Task.A ~work:(-1) ()))

let task_total_work () =
  let tasks = [| mk_task 0 0 Ir.Task.A 5; mk_task 1 0 Ir.Task.B 7 |] in
  Alcotest.(check int) "total" 12 (Ir.Task.total_work tasks)

(* ------------------------------------------------------------------ *)
(* Dep                                                                 *)

let dep_rejects_self_edge () =
  Alcotest.check_raises "self edge" (Invalid_argument "Dep.make: self edge") (fun () ->
      ignore (Ir.Dep.make ~src:3 ~dst:3 ~kind:Ir.Dep.Memory ()))

let dep_kind_strings () =
  Alcotest.(check string) "mem" "mem" (Ir.Dep.kind_to_string Ir.Dep.Memory);
  Alcotest.(check string) "reg" "reg" (Ir.Dep.kind_to_string Ir.Dep.Register);
  Alcotest.(check string) "ctl" "ctl" (Ir.Dep.kind_to_string Ir.Dep.Control)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let simple_loop () =
  {
    Ir.Trace.loop_name = "l";
    tasks =
      [|
        mk_task 0 0 Ir.Task.A 1; mk_task 1 0 Ir.Task.B 10; mk_task 2 0 Ir.Task.C 1;
        mk_task 3 1 Ir.Task.A 1; mk_task 4 1 Ir.Task.B 10; mk_task 5 1 Ir.Task.C 1;
      |];
    explicit_deps = [];
  }

let trace_total_work () =
  let t =
    { Ir.Trace.name = "t"; segments = [ Ir.Trace.Serial 5; Ir.Trace.Loop (simple_loop ()) ] }
  in
  Alcotest.(check int) "total" 29 (Ir.Trace.total_work t);
  Alcotest.(check int) "serial" 5 (Ir.Trace.serial_work t);
  Alcotest.(check int) "iterations" 2 (Ir.Trace.loop_iterations (simple_loop ()))

let trace_validate_ok () =
  let t = { Ir.Trace.name = "t"; segments = [ Ir.Trace.Loop (simple_loop ()) ] } in
  Alcotest.(check bool) "valid" true (Ir.Trace.validate t = Ok ())

let trace_validate_bad_id () =
  let bad =
    { (simple_loop ()) with Ir.Trace.tasks = [| mk_task 7 0 Ir.Task.A 1 |] }
  in
  let t = { Ir.Trace.name = "t"; segments = [ Ir.Trace.Loop bad ] } in
  Alcotest.(check bool) "invalid" true (Result.is_error (Ir.Trace.validate t))

let trace_validate_backward_dep () =
  let bad =
    {
      (simple_loop ()) with
      Ir.Trace.explicit_deps = [ Ir.Dep.make ~src:4 ~dst:0 ~kind:Ir.Dep.Register () ];
    }
  in
  let t = { Ir.Trace.name = "t"; segments = [ Ir.Trace.Loop bad ] } in
  Alcotest.(check bool) "backward dep rejected" true (Result.is_error (Ir.Trace.validate t))

let trace_find_loop () =
  let t = { Ir.Trace.name = "t"; segments = [ Ir.Trace.Loop (simple_loop ()) ] } in
  Alcotest.(check string) "found" "l" (Ir.Trace.find_loop t "l").Ir.Trace.loop_name;
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Ir.Trace.find_loop t "x"))

(* ------------------------------------------------------------------ *)
(* Pdg                                                                 *)

let pdg_chain () =
  let g = Ir.Pdg.create "chain" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.3 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.4 () in
  let c = Ir.Pdg.add_node g ~label:"c" ~weight:0.3 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Register ();
  let comps = Ir.Pdg.sccs g () in
  Alcotest.(check int) "three components" 3 (List.length comps);
  Alcotest.(check (list (list int))) "topological order" [ [ a ]; [ b ]; [ c ] ] comps

let pdg_cycle () =
  let g = Ir.Pdg.create "cycle" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.5 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.5 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:b ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
  let comps = Ir.Pdg.sccs g () in
  Alcotest.(check int) "one component" 1 (List.length comps);
  Alcotest.(check (list int)) "both nodes" [ a; b ] (List.sort compare (List.hd comps))

let pdg_consider_filter () =
  let g = Ir.Pdg.create "filtered" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.5 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.5 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:b ~dst:a ~kind:Ir.Dep.Memory ~breaker:Ir.Pdg.Alias_speculation ();
  (* With every edge: one SCC.  Ignoring breakable edges: two. *)
  Alcotest.(check int) "cycle with all edges" 1 (List.length (Ir.Pdg.sccs g ()));
  let comps =
    Ir.Pdg.sccs g ~consider:(fun e -> e.Ir.Pdg.breaker = None) ()
  in
  Alcotest.(check int) "broken cycle" 2 (List.length comps)

let pdg_successors () =
  let g = Ir.Pdg.create "succ" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:1.0 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:1.0 () in
  let c = Ir.Pdg.add_node g ~label:"c" ~weight:1.0 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:a ~dst:c ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Memory ();
  Alcotest.(check (list int)) "distinct successors" [ b; c ] (Ir.Pdg.successors g a)

let pdg_weight () =
  let g = Ir.Pdg.create "w" in
  ignore (Ir.Pdg.add_node g ~label:"a" ~weight:0.25 ());
  ignore (Ir.Pdg.add_node g ~label:"b" ~weight:0.75 ());
  Alcotest.(check (float 1e-9)) "total" 1.0 (Ir.Pdg.total_weight g)

let pdg_bad_edge () =
  let g = Ir.Pdg.create "bad" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:1.0 () in
  Alcotest.check_raises "unknown node" (Invalid_argument "Pdg.add_edge: unknown node")
    (fun () -> Ir.Pdg.add_edge g ~src:a ~dst:99 ~kind:Ir.Dep.Register ())

(* Within one iteration a region trivially depends on itself, so the only
   legal self-edge is the loop-carried recurrence. *)
let pdg_self_edge () =
  let g = Ir.Pdg.create "self" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:1.0 () in
  Alcotest.check_raises "intra-iteration self-edge"
    (Invalid_argument "Pdg.add_edge: self-edge must be loop_carried") (fun () ->
      Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Memory ());
  Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Memory ~loop_carried:true ();
  Alcotest.(check int) "carried self-edge kept" 1 (List.length (Ir.Pdg.edges g))

(* Property: SCC components partition the node set. *)
let pdg_scc_partition =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"sccs partition the nodes"
       QCheck2.Gen.(pair (int_range 1 15) (list (pair (int_bound 14) (int_bound 14))))
       (fun (n, edges) ->
         let g = Ir.Pdg.create "random" in
         for i = 0 to n - 1 do
           ignore (Ir.Pdg.add_node g ~label:(string_of_int i) ~weight:1.0 ())
         done;
         List.iter
           (fun (s, d) ->
             if s < n && d < n && s <> d then
               Ir.Pdg.add_edge g ~src:s ~dst:d ~kind:Ir.Dep.Register ())
           edges;
         let comps = Ir.Pdg.sccs g () in
         let all = List.concat comps |> List.sort compare in
         all = List.init n Fun.id))

let () =
  Alcotest.run "ir"
    [
      ( "task",
        [
          Alcotest.test_case "phase order" `Quick task_phase_order;
          Alcotest.test_case "rejects negative" `Quick task_rejects_negative;
          Alcotest.test_case "total work" `Quick task_total_work;
        ] );
      ( "dep",
        [
          Alcotest.test_case "self edge" `Quick dep_rejects_self_edge;
          Alcotest.test_case "kind strings" `Quick dep_kind_strings;
        ] );
      ( "trace",
        [
          Alcotest.test_case "total work" `Quick trace_total_work;
          Alcotest.test_case "validate ok" `Quick trace_validate_ok;
          Alcotest.test_case "validate bad id" `Quick trace_validate_bad_id;
          Alcotest.test_case "validate backward dep" `Quick trace_validate_backward_dep;
          Alcotest.test_case "find loop" `Quick trace_find_loop;
        ] );
      ( "pdg",
        [
          Alcotest.test_case "chain" `Quick pdg_chain;
          Alcotest.test_case "cycle" `Quick pdg_cycle;
          Alcotest.test_case "consider filter" `Quick pdg_consider_filter;
          Alcotest.test_case "successors" `Quick pdg_successors;
          Alcotest.test_case "weight" `Quick pdg_weight;
          Alcotest.test_case "bad edge" `Quick pdg_bad_edge;
          Alcotest.test_case "self edge" `Quick pdg_self_edge;
          pdg_scc_partition;
        ] );
    ]

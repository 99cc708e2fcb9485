(* Tests for speculation plans and dependence resolution. *)

module SP = Speculation.Spec_plan
module R = Speculation.Resolve
module M = Profiling.Mem_profile

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)

let plan_default_is_conservative () =
  let p = SP.default in
  Alcotest.(check bool) "no alias" false (SP.uses_technique p "alias");
  Alcotest.(check bool) "no value" false (SP.uses_technique p "value");
  Alcotest.(check bool) "no commutative" false (SP.uses_technique p "commutative")

let plan_techniques () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"rng" ();
  let p = SP.make ~alias:SP.Alias_all ~value_locs:[ "x" ] ~commutative:c () in
  Alcotest.(check bool) "alias" true (SP.uses_technique p "alias");
  Alcotest.(check bool) "value" true (SP.uses_technique p "value");
  Alcotest.(check bool) "commutative" true (SP.uses_technique p "commutative");
  Alcotest.(check (list string)) "groups" [ "rng" ] (SP.commutative_groups p)

(* ------------------------------------------------------------------ *)
(* Resolution rules                                                    *)

(* A two-iteration loop: B0 (id 0) and B1 (id 1), plus A1 (id 2) of the
   second iteration, used to exercise the pipeline-dataflow rule. *)
let loop_for_resolution () =
  {
    Ir.Trace.loop_name = "l";
    tasks =
      [|
        Ir.Task.make ~id:0 ~iteration:0 ~phase:Ir.Task.B ~work:10 ();
        Ir.Task.make ~id:1 ~iteration:1 ~phase:Ir.Task.B ~work:10 ();
        Ir.Task.make ~id:2 ~iteration:1 ~phase:Ir.Task.C ~work:1 ();
      |];
    explicit_deps = [];
  }

let mem_edge ?(group = None) ?(predicted = false) src dst loc =
  {
    M.src;
    dst;
    loc;
    group;
    silent = false;
    predicted;
    src_offset = 0;
    dst_offset = 0;
    distance = None;
  }

let loc_name = function 0 -> "alpha" | 1 -> "beta" | _ -> "gamma"

let resolve_with plan edges =
  let resolved, stats =
    R.resolve ~plan ~loc_name ~loop:(loop_for_resolution ()) ~mem_edges:edges
  in
  (resolved, stats)

let action_of edges = (List.hd edges).R.action

let resolve_default_synchronizes () =
  let edges, stats = resolve_with SP.default [ mem_edge 0 1 0 ] in
  Alcotest.(check bool) "sync" true (action_of edges = Ir.Dep.Synchronize);
  Alcotest.(check int) "stats" 1 stats.R.synchronized

let resolve_alias_speculates () =
  let plan = SP.make ~alias:SP.Alias_all () in
  let edges, _ = resolve_with plan [ mem_edge 0 1 0 ] in
  Alcotest.(check bool) "spec" true (action_of edges = Ir.Dep.Speculate)

let resolve_alias_locs_scoped () =
  let plan = SP.make ~alias:(SP.Alias_locs [ "alpha" ]) () in
  let e1, _ = resolve_with plan [ mem_edge 0 1 0 ] in
  let e2, _ = resolve_with plan [ mem_edge 0 1 1 ] in
  Alcotest.(check bool) "alpha speculated" true (action_of e1 = Ir.Dep.Speculate);
  Alcotest.(check bool) "beta synchronized" true (action_of e2 = Ir.Dep.Synchronize)

let resolve_commutative_removes () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"rng" ~group:"rng" ();
  let plan = SP.make ~commutative:c () in
  let edges, stats = resolve_with plan [ mem_edge ~group:(Some "rng") 0 1 0 ] in
  Alcotest.(check bool) "removed" true (action_of edges = Ir.Dep.Remove);
  Alcotest.(check int) "stats removed" 1 stats.R.removed

let resolve_unannotated_group_kept () =
  (* The profiler tagged the edge, but the plan does not honour the
     annotation: the dependence must stay. *)
  let plan = SP.make ~alias:SP.Alias_all () in
  let edges, _ = resolve_with plan [ mem_edge ~group:(Some "rng") 0 1 0 ] in
  Alcotest.(check bool) "kept as speculated" true (action_of edges = Ir.Dep.Speculate)

let resolve_value_prediction () =
  let plan = SP.make ~value_locs:[ "alpha" ] () in
  let hit, _ = resolve_with plan [ mem_edge ~predicted:true 0 1 0 ] in
  let miss, _ = resolve_with plan [ mem_edge ~predicted:false 0 1 0 ] in
  Alcotest.(check bool) "predicted removed" true (action_of hit = Ir.Dep.Remove);
  Alcotest.(check bool) "mispredicted speculated" true (action_of miss = Ir.Dep.Speculate)

let resolve_sync_overrides_alias () =
  let plan = SP.make ~alias:SP.Alias_all ~sync_locs:[ "alpha" ] () in
  let edges, _ = resolve_with plan [ mem_edge 0 1 0 ] in
  Alcotest.(check bool) "sync wins" true (action_of edges = Ir.Dep.Synchronize)

let resolve_pipeline_dataflow () =
  (* B1 (id 1) -> C1 (id 2), same iteration, phase order: carried by the
     queues regardless of the plan. *)
  let plan = SP.make ~alias:SP.Alias_all () in
  let edges, _ = resolve_with plan [ mem_edge 1 2 0 ] in
  Alcotest.(check bool) "pipeline dataflow synchronized" true
    (action_of edges = Ir.Dep.Synchronize);
  Alcotest.(check bool) "reason" true ((List.hd edges).R.reason = R.Pipeline_dataflow)

let resolve_explicit_control () =
  let loop =
    {
      (loop_for_resolution ()) with
      Ir.Trace.explicit_deps = [ Ir.Dep.make ~src:0 ~dst:1 ~kind:Ir.Dep.Control () ];
    }
  in
  let spec_plan = SP.make ~control_speculated:true () in
  let sync_plan = SP.make () in
  let spec, _ = R.resolve ~plan:spec_plan ~loc_name ~loop ~mem_edges:[] in
  let sync, _ = R.resolve ~plan:sync_plan ~loc_name ~loop ~mem_edges:[] in
  Alcotest.(check bool) "control speculated" true ((List.hd spec).R.action = Ir.Dep.Speculate);
  Alcotest.(check bool) "control synchronized" true
    ((List.hd sync).R.action = Ir.Dep.Synchronize)

let resolve_stats_consistent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"stats partition the edges"
       QCheck2.Gen.(list (pair (int_bound 2) bool))
       (fun specs ->
         let edges =
           List.map (fun (loc, predicted) -> mem_edge ~predicted 0 1 loc) specs
         in
         let plan = SP.make ~alias:SP.Alias_all ~value_locs:[ "beta" ] () in
         let _, stats = resolve_with plan edges in
         stats.R.total = stats.R.removed + stats.R.speculated + stats.R.synchronized))

(* ------------------------------------------------------------------ *)
(* Automatic plan inference                                            *)

(* A loop whose three locations have clearly distinct behaviours:
   loc 0 ("alpha"): written with the same value every iteration (value-
   predictable); loc 1 ("beta"): one conflict over many iterations
   (rare -> alias-speculate); loc 2 ("gamma"): conflicts every iteration
   with changing values (dense -> synchronize). *)
let auto_profile () =
  let p = Profiling.Profile.create ~name:"auto" in
  let alpha = Profiling.Profile.loc p "alpha" in
  let beta = Profiling.Profile.loc p "beta" in
  let gamma = Profiling.Profile.loc p "gamma" in
  Profiling.Profile.begin_loop p "loop";
  for i = 0 to 19 do
    ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
    Profiling.Profile.read p alpha;
    (* Restore-style write: value changes mid-task, same at the end, with
       silent-store hardware unable to elide the changing write. *)
    Profiling.Profile.write p alpha (1000 + i);
    Profiling.Profile.write p alpha 7;
    if i = 10 then Profiling.Profile.write p beta i;
    if i = 11 || i = 17 then Profiling.Profile.read p beta;
    Profiling.Profile.read p gamma;
    Profiling.Profile.write p gamma i;
    Profiling.Profile.work p 10;
    Profiling.Profile.end_task p
  done;
  Profiling.Profile.end_loop p;
  p

let auto_plan_classifies () =
  let p = auto_profile () in
  let trace = Profiling.Profile.trace p in
  let loop = Ir.Trace.find_loop trace "loop" in
  let mem_edges = Profiling.Mem_profile.analyze (Profiling.Profile.log_of p "loop") in
  let profiles =
    Speculation.Auto_plan.profile_locations
      ~loc_name:(Profiling.Profile.loc_name p) ~loop ~mem_edges
  in
  let decision name =
    (List.find (fun q -> q.Speculation.Auto_plan.lp_name = name) profiles)
      .Speculation.Auto_plan.lp_decision
  in
  Alcotest.(check bool) "alpha value-speculated" true
    (decision "alpha" = Speculation.Auto_plan.Value_speculate);
  Alcotest.(check bool) "beta alias-speculated" true
    (decision "beta" = Speculation.Auto_plan.Alias_speculate);
  Alcotest.(check bool) "gamma synchronized" true
    (decision "gamma" = Speculation.Auto_plan.Synchronize)

let auto_plan_infer_builds_plan () =
  let p = auto_profile () in
  let trace = Profiling.Profile.trace p in
  let loop = Ir.Trace.find_loop trace "loop" in
  let mem_edges = Profiling.Mem_profile.analyze (Profiling.Profile.log_of p "loop") in
  let plan =
    Speculation.Auto_plan.infer ~loc_name:(Profiling.Profile.loc_name p) ~loop ~mem_edges ()
  in
  Alcotest.(check (list string)) "value locs" [ "alpha" ] plan.SP.value_locs;
  Alcotest.(check (list string)) "sync locs" [ "gamma" ] plan.SP.sync_locs;
  Alcotest.(check bool) "alias covers the rest" true (plan.SP.alias = SP.Alias_all)

let auto_plan_ignores_commutative_edges () =
  let p = Profiling.Profile.create ~name:"auto" in
  let seed = Profiling.Profile.loc p "seed" in
  Profiling.Profile.begin_loop p "loop";
  for i = 0 to 9 do
    ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
    Profiling.Profile.commutative p ~group:"rng" (fun () ->
        Profiling.Profile.read p seed;
        Profiling.Profile.write p seed i);
    Profiling.Profile.work p 5;
    Profiling.Profile.end_task p
  done;
  Profiling.Profile.end_loop p;
  let trace = Profiling.Profile.trace p in
  let loop = Ir.Trace.find_loop trace "loop" in
  let mem_edges = Profiling.Mem_profile.analyze (Profiling.Profile.log_of p "loop") in
  let profiles =
    Speculation.Auto_plan.profile_locations
      ~loc_name:(Profiling.Profile.loc_name p) ~loop ~mem_edges
  in
  Alcotest.(check int) "commutative deps not profiled" 0 (List.length profiles)

let () =
  Alcotest.run "speculation"
    [
      ( "plan",
        [
          Alcotest.test_case "default conservative" `Quick plan_default_is_conservative;
          Alcotest.test_case "techniques" `Quick plan_techniques;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "default sync" `Quick resolve_default_synchronizes;
          Alcotest.test_case "alias spec" `Quick resolve_alias_speculates;
          Alcotest.test_case "alias locs" `Quick resolve_alias_locs_scoped;
          Alcotest.test_case "commutative removes" `Quick resolve_commutative_removes;
          Alcotest.test_case "unannotated kept" `Quick resolve_unannotated_group_kept;
          Alcotest.test_case "value prediction" `Quick resolve_value_prediction;
          Alcotest.test_case "sync overrides alias" `Quick resolve_sync_overrides_alias;
          Alcotest.test_case "pipeline dataflow" `Quick resolve_pipeline_dataflow;
          Alcotest.test_case "explicit control" `Quick resolve_explicit_control;
          resolve_stats_consistent;
        ] );
      ( "auto-plan",
        [
          Alcotest.test_case "classifies" `Quick auto_plan_classifies;
          Alcotest.test_case "infers plan" `Quick auto_plan_infer_builds_plan;
          Alcotest.test_case "skips commutative" `Quick auto_plan_ignores_commutative_edges;
        ] );
    ]

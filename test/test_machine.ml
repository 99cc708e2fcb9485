(* Tests for the machine configuration.  The paper's versioned memory
   is modelled by [Runtime.Spec_store], tested in test_runtime.ml and,
   against the profiler, in test_profiling.ml. *)

let config_defaults () =
  let c = Machine.Config.default ~cores:8 in
  Alcotest.(check int) "queue capacity" 32 c.Machine.Config.queue_capacity;
  Alcotest.(check int) "queue count" 256 c.Machine.Config.queue_count;
  Alcotest.(check int) "latency" 1 c.Machine.Config.comm_latency

let config_rejects_bad () =
  Alcotest.check_raises "zero cores" (Invalid_argument "Config.make: cores must be >= 1")
    (fun () -> ignore (Machine.Config.make ~cores:0 ()))

let config_queue_budget () =
  (* The DSWP plan must fit the paper's 256-queue budget at 32 cores. *)
  let c = Machine.Config.default ~cores:32 in
  Alcotest.(check bool) "within budget" true
    (Machine.Config.queues_needed c <= c.Machine.Config.queue_count)

let () =
  Alcotest.run "machine"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "rejects bad" `Quick config_rejects_bad;
          Alcotest.test_case "queue budget" `Quick config_queue_budget;
        ] );
    ]

(* Tests for the machine model: configuration, versioned memory. *)

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

(* ------------------------------------------------------------------ *)
(* Versioned memory                                                    *)

let vm_raw_violation () =
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.set_committed m ~loc:1 10;
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  (* Task 1 reads stale architectural state before task 0 writes. *)
  Alcotest.(check (option int)) "stale read" (Some 10)
    (Machine.Versioned_memory.read m ~task:1 ~loc:1);
  Machine.Versioned_memory.write m ~task:0 ~loc:1 20;
  let violations = Machine.Versioned_memory.commit m ~task:0 in
  Alcotest.(check int) "one violation" 1 (List.length violations);
  (match violations with
  | [ v ] ->
    Alcotest.(check int) "violated task" 1 v.Machine.Versioned_memory.violated_task;
    Alcotest.(check int) "writer" 0 v.Machine.Versioned_memory.writer_task
  | _ -> Alcotest.fail "expected one violation");
  ignore (Machine.Versioned_memory.commit m ~task:1)

let vm_forwarding_no_violation () =
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  Machine.Versioned_memory.write m ~task:0 ~loc:5 42;
  (* Task 1 reads AFTER task 0's buffered write: sees the forwarded value,
     so the commit raises no violation. *)
  Alcotest.(check (option int)) "forwarded value" (Some 42)
    (Machine.Versioned_memory.read m ~task:1 ~loc:5);
  let violations = Machine.Versioned_memory.commit m ~task:0 in
  Alcotest.(check int) "no violation" 0 (List.length violations)

let vm_silent_store () =
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.set_committed m ~loc:3 7;
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  Alcotest.(check (option int)) "read committed" (Some 7)
    (Machine.Versioned_memory.read m ~task:1 ~loc:3);
  (* Task 0 silently rewrites the same value: no violation. *)
  Machine.Versioned_memory.write m ~task:0 ~loc:3 7;
  let violations = Machine.Versioned_memory.commit m ~task:0 in
  Alcotest.(check int) "silent store: no violation" 0 (List.length violations)

let vm_silent_store_disabled () =
  let m = Machine.Versioned_memory.create ~silent_stores:false () in
  Machine.Versioned_memory.set_committed m ~loc:3 7;
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  ignore (Machine.Versioned_memory.read m ~task:1 ~loc:3);
  Machine.Versioned_memory.write m ~task:0 ~loc:3 7;
  let violations = Machine.Versioned_memory.commit m ~task:0 in
  Alcotest.(check int) "without hardware: violation" 1 (List.length violations)

let vm_privatization () =
  (* WAW and WAR hazards never conflict: each task sees its own version. *)
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  Machine.Versioned_memory.write m ~task:0 ~loc:9 1;
  Machine.Versioned_memory.write m ~task:1 ~loc:9 2;
  Alcotest.(check (option int)) "task 0 sees own" (Some 1)
    (Machine.Versioned_memory.read m ~task:0 ~loc:9);
  Alcotest.(check (option int)) "task 1 sees own" (Some 2)
    (Machine.Versioned_memory.read m ~task:1 ~loc:9);
  Alcotest.(check int) "WAW: no violation" 0
    (List.length (Machine.Versioned_memory.commit m ~task:0));
  Alcotest.(check int) "commit order value" 0
    (List.length (Machine.Versioned_memory.commit m ~task:1));
  Alcotest.(check (option int)) "last committed wins" (Some 2)
    (Machine.Versioned_memory.committed_value m ~loc:9)

let vm_commit_order_enforced () =
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.begin_task m ~task:0;
  Machine.Versioned_memory.begin_task m ~task:1;
  Alcotest.check_raises "younger first rejected"
    (Invalid_argument "Versioned_memory.commit: must commit oldest version first") (fun () ->
      ignore (Machine.Versioned_memory.commit m ~task:1))

let vm_logical_order_enforced () =
  let m = Machine.Versioned_memory.create () in
  Machine.Versioned_memory.begin_task m ~task:5;
  Alcotest.check_raises "stale task id"
    (Invalid_argument "Versioned_memory.begin_task: tasks must open in logical order")
    (fun () -> Machine.Versioned_memory.begin_task m ~task:3)

(* Property: committing all tasks in order leaves committed state equal
   to sequential execution of the same writes. *)
let vm_matches_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"in-order commit = sequential final state"
       QCheck2.Gen.(list (triple (int_bound 4) (int_bound 3) (int_bound 20)))
       (fun ops ->
         (* ops: (task 0..4, loc, value); tasks write in task order. *)
         let by_task = List.stable_sort (fun (t1, _, _) (t2, _, _) -> compare t1 t2) ops in
         let m = Machine.Versioned_memory.create () in
         let seq : (int, int) Hashtbl.t = Hashtbl.create 8 in
         for t = 0 to 4 do
           Machine.Versioned_memory.begin_task m ~task:t
         done;
         List.iter
           (fun (t, l, v) ->
             Machine.Versioned_memory.write m ~task:t ~loc:l v;
             Hashtbl.replace seq l v)
           by_task;
         for t = 0 to 4 do
           ignore (Machine.Versioned_memory.commit m ~task:t)
         done;
         Hashtbl.fold
           (fun l v acc ->
             acc && Machine.Versioned_memory.committed_value m ~loc:l = Some v)
           seq true))

let () =
  Alcotest.run "machine"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "rejects bad" `Quick config_rejects_bad;
          Alcotest.test_case "queue budget" `Quick config_queue_budget;
        ] );
      ( "versioned-memory",
        [
          Alcotest.test_case "RAW violation" `Quick vm_raw_violation;
          Alcotest.test_case "forwarding" `Quick vm_forwarding_no_violation;
          Alcotest.test_case "silent store" `Quick vm_silent_store;
          Alcotest.test_case "silent store disabled" `Quick vm_silent_store_disabled;
          Alcotest.test_case "privatization" `Quick vm_privatization;
          Alcotest.test_case "commit order" `Quick vm_commit_order_enforced;
          Alcotest.test_case "logical order" `Quick vm_logical_order_enforced;
          vm_matches_sequential;
        ] );
    ]

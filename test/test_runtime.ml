(* The real Domain-parallel DSWP runtime: SPSC queue semantics (model-
   based and cross-domain), executor output equality against the
   sequential reference for all 11 staged benchmarks, speculation
   squash behaviour, and the sim-vs-real cross-validation harness. *)

module Spsc = Runtime.Spsc
module Staged = Runtime.Staged
module Exec = Runtime.Exec

(* ------------------------------------------------------------------ *)
(* SPSC queue vs a FIFO model under a randomized operation schedule    *)

let spsc_matches_model () =
  let rng = Simcore.Rng.create 0xC0FFEE in
  for _round = 1 to 40 do
    let cap = 1 lsl Simcore.Rng.int_in rng 0 5 in
    let q = Spsc.create ~capacity:cap () in
    Alcotest.(check int) "capacity is the requested power of two" cap (Spsc.capacity q);
    let model = Queue.create () in
    let next = ref 0 in
    for _op = 1 to 400 do
      if Simcore.Rng.bool rng then begin
        let pushed = Spsc.try_push q !next in
        Alcotest.(check bool)
          "try_push succeeds iff the model queue has room"
          (Queue.length model < cap) pushed;
        if pushed then begin
          Queue.push !next model;
          incr next
        end
      end
      else begin
        match Spsc.try_pop q with
        | x -> Alcotest.(check int) "FIFO order" (Queue.pop model) x
        | exception Spsc.Empty ->
          Alcotest.(check bool) "empty iff model empty" true (Queue.is_empty model)
        | exception Spsc.Closed -> Alcotest.fail "never closed in this schedule"
      end;
      Alcotest.(check int) "length tracks the model" (Queue.length model) (Spsc.length q)
    done
  done

let spsc_close_semantics () =
  let q = Spsc.create ~capacity:4 () in
  assert (Spsc.try_push q 1);
  assert (Spsc.try_push q 2);
  Spsc.close q;
  (* Close stops the stream after the buffered items drain. *)
  Alcotest.(check int) "drains first item" 1 (Spsc.pop q);
  Alcotest.(check int) "drains second item" 2 (Spsc.pop q);
  Alcotest.check_raises "then end of stream" Spsc.Closed (fun () -> ignore (Spsc.pop q));
  match Spsc.try_pop q with
  | exception Spsc.Closed -> ()
  | _ -> Alcotest.fail "try_pop after drain must raise Closed"

let spsc_poison_raises () =
  let q = Spsc.create () in
  assert (Spsc.try_push q 1);
  Spsc.poison q;
  Alcotest.check_raises "push raises" Spsc.Poisoned (fun () -> Spsc.push q 2);
  Alcotest.check_raises "pop raises" Spsc.Poisoned (fun () -> ignore (Spsc.pop q))

(* Two real domains, 1M items: nothing lost, nothing duplicated,
   nothing reordered.  A large ring keeps the single-core fallback
   (spin-then-sleep handoff) fast enough to stress in-test. *)
let spsc_two_domain_stress () =
  let n = 1_000_000 in
  let q = Spsc.create ~capacity:1024 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done;
        Spsc.close q)
  in
  let expected = ref 0 in
  let received = ref 0 in
  let ok = ref true in
  let rec drain () =
    match Spsc.pop q with
    | x ->
      if x <> !expected then ok := false;
      incr expected;
      incr received;
      drain ()
    | exception Spsc.Closed -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check bool) "in order" true !ok;
  Alcotest.(check int) "all items received exactly once" n !received

(* The queue's whole API is allocation-free: push/pop round trips of an
   immediate, and polls of an empty ring, cost zero minor words. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let spsc_round_trips_allocation_free () =
  let q = Spsc.create ~capacity:64 () in
  ignore (minor_words_of (fun () -> ()));
  let words =
    minor_words_of (fun () ->
        for i = 0 to 9_999 do
          Spsc.push q i;
          if Spsc.pop q <> i then failwith "round trip lost its item";
          match Spsc.try_pop q with
          | _ -> failwith "a drained ring popped an item"
          | exception Spsc.Empty -> ()
        done)
  in
  Alcotest.(check (float 0.)) "10k round trips allocate nothing" 0. words

(* ------------------------------------------------------------------ *)
(* Executor: every staged benchmark, byte-identical at every count     *)

let bench_output_equality () =
  let counts =
    (* Always exercise a replicated-B layout (>= 3 roles) even on a
       small machine; correctness cannot depend on the core count. *)
    List.sort_uniq compare (Test_util.domain_counts () @ [ 3; 4 ])
  in
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      List.iter
        (fun threads ->
          let r = Exec.run ~threads ~name (Runtime.Real_bench.staged name) in
          Alcotest.(check bool)
            (Printf.sprintf "%s byte-identical at %d threads" name threads)
            true
            (r.Exec.output = seq))
        counts)
    Runtime.Real_bench.names

let role_stats_cover_all_items () =
  let name = "164.gzip" in
  let r = Exec.run ~threads:4 ~name (Runtime.Real_bench.staged name) in
  let n = Staged.iterations (Runtime.Real_bench.staged name) in
  let items role_prefix =
    Array.fold_left
      (fun acc rs ->
        if String.length rs.Exec.rs_role > 0 && rs.Exec.rs_role.[0] = role_prefix then
          acc + rs.Exec.rs_items
        else acc)
      0 r.Exec.stats.Exec.roles
  in
  Alcotest.(check int) "A produced every iteration" n (items 'A');
  Alcotest.(check int) "B replicas covered every iteration" n (items 'B');
  Alcotest.(check int) "C consumed every iteration" n (items 'C');
  Alcotest.(check int) "replicas per the paper's plan" 2 r.Exec.stats.Exec.replicas

(* The decoded event stream of a probed run, on a bench without shared
   state and on 175.vpr, which shares a store and squashes: loop markers
   at both ends, time order in between, exactly one start and one finish
   per (iteration, phase) with the finish after the start, one commit
   per iteration, one squash event per counted squash, and per queue
   slot the highest decoded push occupancy is the reported high-water
   mark. *)
let events_well_formed () =
  List.iter
    (fun name ->
      let staged = Runtime.Real_bench.staged name in
      let n = Staged.iterations staged in
      let r = Exec.run ~threads:3 ~name ~probe:true staged in
      let tl =
        match r.Exec.telemetry with Some tl -> tl | None -> Alcotest.fail "no telemetry"
      in
      let evs = Exec.events tl in
      (match evs with
      | Obs.Event.Loop_begin _ :: _ -> ()
      | _ -> Alcotest.fail "first event is Loop_begin");
      (match List.rev evs with
      | Obs.Event.Loop_end _ :: _ -> ()
      | _ -> Alcotest.fail "last event is Loop_end");
      let count p = List.length (List.filter p evs) in
      Alcotest.(check int) (name ^ ": one commit per iteration") n
        (count (function Obs.Event.Iter_commit _ -> true | _ -> false));
      Alcotest.(check int) (name ^ ": one squash event per squash") r.Exec.stats.Exec.squashes
        (count (function Obs.Event.Task_squash _ -> true | _ -> false));
      let rec sorted = function
        | a :: (b :: _ as rest) -> Obs.Event.time a <= Obs.Event.time b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) (name ^ ": events in time order") true (sorted evs);
      (* Task [3i + p] is iteration i's phase p (A, B, C). *)
      let starts = Array.make (3 * n) 0 and finishes = Array.make (3 * n) 0 in
      List.iter
        (function
          | Obs.Event.Task_start { task; iteration; phase; _ } ->
            Alcotest.(check int) "task id encodes iteration and phase"
              ((3 * iteration) + Char.code phase - Char.code 'A')
              task;
            if finishes.(task) > 0 then Alcotest.failf "%s: task %d finished before it started" name task;
            starts.(task) <- starts.(task) + 1
          | Obs.Event.Task_finish { task; _ } ->
            if starts.(task) = 0 then Alcotest.failf "%s: task %d finished before it started" name task;
            finishes.(task) <- finishes.(task) + 1
          | _ -> ())
        evs;
      Alcotest.(check bool) (name ^ ": one start and one finish per (iteration, phase)") true
        (Array.for_all (( = ) 1) starts && Array.for_all (( = ) 1) finishes);
      List.iter
        (fun qs ->
          let peak =
            List.fold_left
              (fun acc -> function
                | Obs.Event.Queue_push { queue; slot; occupancy; _ }
                  when queue = qs.Exec.qs_queue && slot = qs.Exec.qs_slot ->
                  max acc occupancy
                | _ -> acc)
              0 evs
          in
          Alcotest.(check int) (name ^ ": decoded push occupancy peaks at the high-water")
            qs.Exec.qs_high_water peak)
        tl.Exec.tl_queues)
    [ "181.mcf"; "175.vpr" ]

let stage_exception_propagates () =
  let staged =
    Staged.Pipeline
      {
        Staged.iterations = 100;
        init = [||];
        produce = (fun i -> i);
        transform = (fun ~read:_ ~write:_ i -> if i = 57 then failwith "boom" else i);
        consume = (fun buf _ r -> Buffer.add_string buf (string_of_int r));
        finish = (fun ~read:_ _ -> ());
      }
  in
  match Exec.run ~threads:4 ~name:"boom" staged with
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m
  | _ -> Alcotest.fail "stage exception must re-raise on the caller"

(* With telemetry off, a queue hop allocates at most one pair (3
   words): one hop at two domains (A -> fused B+C), two at three (A -> B
   -> C).  A ships each item alone and B hands C a recycled job, so a
   warm run allocates nothing per hop.  A 1-entry ring stalls on nearly
   every item, so a stall path that allocated anything would blow the
   bound.  The rows are a no-op body and, at two domains,
   one doing a [read] and a [write] per iteration: the speculative store
   adds nothing per access.  Words are read from the pool's per-worker
   counters, which cover exactly the role bodies. *)
let noop_staged n =
  Staged.Pipeline
    {
      Staged.iterations = n;
      init = [||];
      produce = (fun i -> i);
      transform = (fun ~read:_ ~write:_ x -> x);
      consume = (fun _ _ _ -> ());
      finish = (fun ~read:_ _ -> ());
    }

let read_write_staged n =
  Staged.Pipeline
    {
      Staged.iterations = n;
      init = Array.make 16 0;
      produce = (fun i -> i);
      transform =
        (fun ~read ~write i ->
          let loc = i land 15 in
          write loc (read loc + 1);
          i);
      consume = (fun _ _ _ -> ());
      finish = (fun ~read:_ _ -> ());
    }

let exec_hops_allocate_one_pair () =
  let n = 10_000 in
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      let words () =
        Array.fold_left ( +. ) 0. (Parallel.Pool.stats pool).Parallel.Pool.stat_minor_words
      in
      List.iter
        (fun (label, staged, threads, hops) ->
          List.iter
            (fun queue_capacity ->
              let w0 = words () in
              let r = Exec.run ~pool ~queue_capacity ~threads ~name:label (staged n) in
              let per_hop = (words () -. w0) /. float_of_int (n * hops) in
              (* A few hundred words per run cover the role closures. *)
              Alcotest.(check bool)
                (Printf.sprintf "%s, %d threads, capacity %d: %.3f words per hop <= 3" label
                   threads queue_capacity per_hop)
                true
                (per_hop <= 3. +. (512. /. float_of_int (n * hops)));
              if queue_capacity = 1 then
                Alcotest.(check bool)
                  (Printf.sprintf "%s, %d threads, capacity 1: the run stalled" label threads)
                  true
                  (Array.exists
                     (fun rs -> rs.Exec.rs_starved +. rs.Exec.rs_blocked > 0.)
                     r.Exec.stats.Exec.roles))
            [ 1; 64 ])
        [
          ("noop", noop_staged, 2, 1);
          ("noop", noop_staged, 3, 2);
          ("read+write", read_write_staged, 2, 1);
        ])

(* ------------------------------------------------------------------ *)
(* Speculation: conflicts squash, output stays sequential              *)

(* Every iteration reads the location the previous iteration wrote, so
   any replica running ahead of the commit point reads a stale value;
   the runtime must squash it and still reproduce the sequential
   output.  B work is padded so iterations genuinely overlap. *)
let conflict_staged () =
  let pad = ref 0 in
  Staged.Pipeline
    {
      Staged.iterations = 64;
      init = [| 1 |];
      produce = (fun i -> i);
      transform =
        (fun ~read ~write i ->
          for k = 0 to 2000 do
            pad := !pad + k
          done;
          let v = read 0 in
          write 0 (Staged.mix v i);
          Staged.mix v i);
      consume = (fun buf i d -> Buffer.add_string buf (Printf.sprintf "%d %s\n" i (Staged.hex d)));
      finish = (fun ~read buf -> Buffer.add_string buf (Staged.hex (read 0) ^ "\n"));
    }

let speculation_squashes_and_recovers () =
  let seq = Staged.run_seq (conflict_staged ()) in
  let squashes = ref 0 in
  for _attempt = 1 to 5 do
    let r = Exec.run ~threads:4 ~name:"conflict" (conflict_staged ()) in
    Alcotest.(check bool) "output sequential despite conflicts" true (r.Exec.output = seq);
    squashes := !squashes + r.Exec.stats.Exec.squashes
  done;
  (* A dependence chain through location 0 with two replicas racing:
     across 5 runs at least one speculative read must have gone stale. *)
  Alcotest.(check bool) "mis-speculation actually occurred" true (!squashes > 0)

let spec_benches_squash_and_match () =
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      let r = Exec.run ~threads:4 ~name (Runtime.Real_bench.staged name) in
      Alcotest.(check bool) (name ^ " byte-identical with speculation") true
        (r.Exec.output = seq))
    [ "175.vpr"; "300.twolf" ]

(* The forwarding rule of replicated B: a read of iteration [i] sees
   the youngest published write of an iteration before [i] — never
   [i]'s own, never a later in-flight iteration's — and committed state
   once the writers retire.  Iterations publish out of order, as
   replicas finish out of order. *)
let forwarding_sees_youngest_earlier_write () =
  let module S = Runtime.Spec_store in
  let executed iteration writes =
    let log = S.log_create () in
    S.start log ~iteration;
    List.iter (fun (loc, v) -> S.write log loc v) writes;
    log
  in
  let st = S.create ~forwarding:true [| 10; 11 |] in
  let publish iteration writes =
    let log = executed iteration writes in
    S.publish st log;
    log
  in
  ignore (publish 7 [ (0, 70) ]);
  let third = publish 3 [ (0, 30) ] in
  ignore (publish 5 [ (0, 50); (1, 51); (0, 55) ]);
  let sees iteration loc = S.forward st ~iteration loc in
  Alcotest.(check int) "no earlier writer: committed" 10 (sees 3 0);
  Alcotest.(check int) "only earlier writer" 30 (sees 4 0);
  Alcotest.(check int) "own write invisible" 30 (sees 5 0);
  Alcotest.(check int) "youngest earlier, last write of its list" 55 (sees 6 0);
  Alcotest.(check int) "youngest of all" 70 (sees 100 0);
  Alcotest.(check int) "other location" 51 (sees 6 1);
  Alcotest.(check int) "later writer invisible" 11 (sees 5 1);
  S.commit st (executed 3 [ (0, 31) ]);
  S.retire st third;
  Alcotest.(check int) "retired writer reads committed" 31 (sees 4 0);
  Alcotest.(check int) "younger writers still forward" 55 (sees 6 0);
  ignore (publish 9 [ (5, 1); (-1, 1) ]);
  Alcotest.(check int) "out-of-range speculative writes skipped" 70 (sees 10 0);
  Alcotest.check_raises "out-of-range read" (Invalid_argument "index out of bounds")
    (fun () -> ignore (sees 10 2));
  let plain = S.create ~forwarding:false [| 10 |] in
  S.publish plain (executed 0 [ (0, 1) ]);
  Alcotest.(check int) "without forwarding reads committed" 10 (S.forward plain ~iteration:1 0)

(* Locations are indices of [init]: an access outside it raises
   [Invalid_argument] in the sequential reference and, once validation
   has shown the access is genuine, on every parallel layout. *)
let out_of_range_location_raises () =
  let staged () =
    Staged.Pipeline
      {
        Staged.iterations = 20;
        init = [| 0; 0 |];
        produce = (fun i -> i);
        transform =
          (fun ~read ~write i ->
            write 0 i;
            read (if i = 13 then 2 else 1));
        consume = (fun _ _ _ -> ());
        finish = (fun ~read:_ _ -> ());
      }
  in
  let raises label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": an out-of-range read must raise Invalid_argument")
  in
  raises "run_seq" (fun () -> Staged.run_seq (staged ()));
  List.iter
    (fun threads ->
      raises (Printf.sprintf "%d threads" threads) (fun () ->
          (Exec.run ~threads ~name:"range" (staged ())).Exec.output))
    [ 2; 3; 4 ]

(* A speculative read or write allocates nothing: with probing off, a
   pipeline doing 1,000 reads (or writes) per iteration costs the
   runtime's pool as many minor words per iteration as one doing 10, up
   to the log's one-off growth (a few thousand words over the run).
   Iteration bodies allocate nothing of their own. *)
let accesses_staged ~reads ~writes n =
  Staged.Pipeline
    {
      Staged.iterations = n;
      init = Array.make 16 1;
      produce = (fun i -> i);
      transform =
        (fun ~read ~write i ->
          let acc = ref i in
          for k = 0 to reads - 1 do
            acc := !acc + read (k land 15)
          done;
          for k = 0 to writes - 1 do
            write (k land 15) ((!acc + k) land 0xffff)
          done;
          0);
      consume = (fun _ _ _ -> ());
      finish = (fun ~read:_ _ -> ());
    }

let accesses_allocate_nothing ~reads ~writes () =
  let n = 2_000 in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let words () =
        Array.fold_left ( +. ) 0. (Parallel.Pool.stats pool).Parallel.Pool.stat_minor_words
      in
      let per_iteration k =
        let w0 = words () in
        ignore
          (Exec.run ~pool ~threads:2 ~name:"accesses"
             (accesses_staged ~reads:(reads * k) ~writes:(writes * k) n));
        (words () -. w0) /. float_of_int n
      in
      ignore (per_iteration 10);
      let few = per_iteration 10 and many = per_iteration 1_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f words per iteration at 1000 accesses vs %.2f at 10 (<= 4 apart)"
           many few)
        true
        (Float.abs (many -. few) <= 4.))

(* ------------------------------------------------------------------ *)
(* The validate-real harness itself                                    *)

let validate_catches_corruption () =
  (* The gate's self-test: a corrupted parallel output must flip the
     verdict, proving the equality check can fail. *)
  let honest =
    Runtime.Validate.run ~benches:[ "181.mcf" ] ~max_threads:2 ~scale:Benchmarks.Study.Small ()
  in
  Alcotest.(check bool) "honest run validates" true honest.Runtime.Validate.ok;
  let corrupted =
    Runtime.Validate.run ~benches:[ "181.mcf" ] ~max_threads:2 ~scale:Benchmarks.Study.Small
      ~corrupt:true ()
  in
  Alcotest.(check bool) "corrupted run fails" false corrupted.Runtime.Validate.ok

let validate_history_round_trips () =
  let path = Filename.temp_file "validate_real" ".jsonl" in
  Sys.remove path;
  let outcome =
    Runtime.Validate.run ~benches:[ "253.perlbmk" ] ~max_threads:2
      ~scale:Benchmarks.Study.Small ~history:path ()
  in
  let entries =
    match Obs_analysis.History.load path with
    | Ok es -> es
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  match entries with
  | [ e ] ->
    Alcotest.(check int) "all measured points recorded" (List.length outcome.Runtime.Validate.points)
      (List.length e.Obs_analysis.History.real);
    Alcotest.(check bool) "real block non-empty" true (e.Obs_analysis.History.real <> []);
    List.iter
      (fun (p : Obs_analysis.History.real_point) ->
        Alcotest.(check bool) "point validated" true p.Obs_analysis.History.rp_ok)
      e.Obs_analysis.History.real
  | es -> Alcotest.fail (Printf.sprintf "expected 1 history entry, found %d" (List.length es))

(* Sim-vs-real tolerance: the measured speedup *ordering* of the three
   smallest benches must not contradict the simulator's predicted
   ordering.  Wall-clock speedup needs real cores: on a machine with
   fewer than 4 recommended domains the measurement would only reflect
   scheduler thrash, so the check logs a notice and skips. *)
let sim_vs_real_ordering () =
  if Test_util.available_domains () < 4 then
    print_endline
      (Printf.sprintf
         "NOTICE: sim-vs-real ordering skipped — %d recommended domain(s), need 4"
         (Test_util.available_domains ()))
  else begin
    let scale = Benchmarks.Study.Medium in
    let outcome =
      Runtime.Validate.run ~benches:Runtime.Real_bench.small_three ~max_threads:4 ~scale ()
    in
    Alcotest.(check bool) "outputs validated" true outcome.Runtime.Validate.ok;
    let best_of bench f =
      List.fold_left
        (fun acc (p : Obs_analysis.History.real_point) ->
          if p.Obs_analysis.History.rp_study = bench then max acc (f p) else acc)
        0. outcome.Runtime.Validate.points
    in
    let measured b = best_of b (fun p -> p.Obs_analysis.History.rp_speedup) in
    let predicted b = best_of b (fun p -> p.Obs_analysis.History.rp_sim_speedup) in
    (* Kendall comparison over the three pairs: concordant pairs must
       not be outnumbered by discordant ones (ordering, not absolute). *)
    let pairs =
      match Runtime.Real_bench.small_three with
      | [ a; b; c ] -> [ (a, b); (a, c); (b, c) ]
      | _ -> Alcotest.fail "small_three must have three benches"
    in
    let score =
      List.fold_left
        (fun acc (x, y) ->
          let sim = compare (predicted x) (predicted y) in
          let real = compare (measured x) (measured y) in
          if sim = 0 || real = 0 then acc
          else if sim = real then acc + 1
          else acc - 1)
        0 pairs
    in
    Alcotest.(check bool)
      (Printf.sprintf "measured ordering tracks predicted ordering (score %d)" score)
      true (score >= 0)
  end

(* ------------------------------------------------------------------ *)
(* Telemetry probes                                                    *)

(* The observability contract: the [probe] switch changes only what is
   recorded, never a single output byte, at any thread
   count, including the speculation path (175.vpr squashes and
   re-executes under probes).  Whichever way busy time is measured
   (summed stage bodies when telemetry is on, wall clock minus stalls
   when off), a role's busy, starved and blocked seconds are disjoint
   parts of its run, so they never add up to more than the run. *)
let probes_do_not_change_output () =
  List.iter
    (fun name ->
      let seq = Staged.run_seq (Runtime.Real_bench.staged name) in
      List.iter
        (fun threads ->
          List.iter
            (fun probe ->
              let r = Exec.run ~threads ~name ~probe (Runtime.Real_bench.staged name) in
              let label = Printf.sprintf "%s at %d threads, probe=%b" name threads probe in
              Alcotest.(check bool) (label ^ ": byte-identical") true (r.Exec.output = seq);
              Alcotest.(check bool)
                (label ^ ": telemetry present iff probed and parallel")
                (probe && threads > 1)
                (r.Exec.telemetry <> None);
              let st = r.Exec.stats in
              Array.iter
                (fun rs ->
                  let sum = rs.Exec.rs_busy +. rs.Exec.rs_starved +. rs.Exec.rs_blocked in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: role %s busy+starved+blocked %.6fs <= %.6fs" label
                       rs.Exec.rs_role sum st.Exec.seconds)
                    true
                    (rs.Exec.rs_busy >= 0. && sum <= st.Exec.seconds +. 1e-3))
                st.Exec.roles)
            [ false; true ])
        [ 1; 2; 3; 4 ])
    [ "164.gzip"; "175.vpr" ]

let telemetry_is_sane () =
  let name = "164.gzip" in
  let staged = Runtime.Real_bench.staged name in
  let n = Staged.iterations staged in
  let r = Exec.run ~threads:3 ~name ~probe:true staged in
  match r.Exec.telemetry with
  | None -> Alcotest.fail "no telemetry from a probed parallel run"
  | Some tl ->
    Alcotest.(check int) "one probe per role" (Array.length r.Exec.stats.Exec.roles)
      (Array.length tl.Exec.tl_roles);
    Array.iter
      (fun rp ->
        Alcotest.(check bool)
          (rp.Exec.rp_role ^ " recorded a stage sample per item")
          true
          (Obs.Hist.count rp.Exec.rp_stage > 0))
      tl.Exec.tl_roles;
    Alcotest.(check bool) "has queue stats" true (tl.Exec.tl_queues <> []);
    List.iter
      (fun qs ->
        Alcotest.(check bool) "high-water within capacity" true
          (qs.Exec.qs_high_water >= 0 && qs.Exec.qs_high_water <= qs.Exec.qs_capacity);
        Alcotest.(check int) "every item crossed the queue" n qs.Exec.qs_pushes)
      tl.Exec.tl_queues;
    Alcotest.(check int) "nothing dropped at this scale" 0 tl.Exec.tl_dropped

(* Each role's ring is sized from the items it will process, so even a
   long run loses no record: a 25,000-iteration synthetic pipeline (the
   benchmark's real-fine size) decodes to one commit per iteration, and
   every queue counts exactly the items routed through it — iteration i
   rides slot [i mod replicas]. *)
let long_run_drops_nothing () =
  let study =
    match Benchmarks.Registry.find "164.gzip" with Some s -> s | None -> assert false
  in
  let pdg = study.Benchmarks.Study.pdg () in
  let enabled = Core.Framework.enabled_breakers study.Benchmarks.Study.plan in
  let partition = Dswp.Partition.partition pdg ~enabled in
  let n = 25_000 in
  List.iter
    (fun threads ->
      let r =
        Exec.run ~threads ~name:"long" ~probe:true
          (Runtime.Synthetic.staged pdg partition ~iterations:n)
      in
      let label = Printf.sprintf "%d threads" threads in
      match r.Exec.telemetry with
      | None -> Alcotest.fail "no telemetry"
      | Some tl ->
        Alcotest.(check int) (label ^ ": nothing dropped") 0 tl.Exec.tl_dropped;
        Alcotest.(check int) (label ^ ": one decoded commit per iteration") n
          (List.length
             (List.filter
                (function Obs.Event.Iter_commit _ -> true | _ -> false)
                (Exec.events tl)));
        let replicas = r.Exec.stats.Exec.replicas in
        List.iter
          (fun qs ->
            let slot = qs.Exec.qs_slot in
            Alcotest.(check int)
              (Printf.sprintf "%s: %s-queue %d pushes" label
                 (Obs.Event.queue_name qs.Exec.qs_queue) slot)
              ((n - slot + replicas - 1) / replicas)
              qs.Exec.qs_pushes)
          tl.Exec.tl_queues)
    [ 2; 3; 4 ]

(* A real probe dump must fit a calibration: the microsecond stage
   histograms become per-iteration stage costs. *)
let probe_dump_fits_calibration () =
  let name = "164.gzip" in
  let staged = Runtime.Real_bench.staged name in
  let n = Staged.iterations staged in
  let r = Exec.run ~threads:3 ~name ~probe:true staged in
  match r.Exec.telemetry with
  | None -> Alcotest.fail "no telemetry"
  | Some tl -> (
    let j = Exec.telemetry_to_json ~name r.Exec.stats tl in
    (* through text, as `repro plan --calibrate <dump>` reads it *)
    match Obs.Json.parse (Obs.Json.to_string j) with
    | Error e -> Alcotest.failf "dump does not re-parse: %s" e
    | Ok j -> (
      match Sim.Calibrate.of_probe_json j with
      | Error e -> Alcotest.failf "of_probe_json: %s" e
      | Ok cal ->
        Alcotest.(check string) "source" "probe" cal.Sim.Calibrate.source;
        Alcotest.(check string) "bench" name cal.Sim.Calibrate.bench;
        Alcotest.(check int) "iterations" n cal.Sim.Calibrate.iterations;
        Alcotest.(check bool) "total cost positive" true
          (Sim.Calibrate.total_cost cal >= 0.);
        Alcotest.(check bool) "queue latency positive" true
          (cal.Sim.Calibrate.queue_latency >= 1)))

let () =
  Alcotest.run "runtime"
    [
      ( "spsc",
        [
          Alcotest.test_case "matches FIFO model" `Quick spsc_matches_model;
          Alcotest.test_case "close semantics" `Quick spsc_close_semantics;
          Alcotest.test_case "poison raises" `Quick spsc_poison_raises;
          Alcotest.test_case "two-domain 1M-item stress" `Quick spsc_two_domain_stress;
          Alcotest.test_case "round trips allocation-free" `Quick
            spsc_round_trips_allocation_free;
        ] );
      ( "exec",
        [
          Alcotest.test_case "all 11 benches byte-identical" `Quick bench_output_equality;
          Alcotest.test_case "role stats cover all items" `Quick role_stats_cover_all_items;
          Alcotest.test_case "events well-formed" `Quick events_well_formed;
          Alcotest.test_case "stage exception propagates" `Quick stage_exception_propagates;
          Alcotest.test_case "one pair allocated per queue hop" `Quick
            exec_hops_allocate_one_pair;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "conflicts squash and recover" `Quick
            speculation_squashes_and_recovers;
          Alcotest.test_case "spec benches match with speculation" `Quick
            spec_benches_squash_and_match;
          Alcotest.test_case "forwarding sees youngest earlier write" `Quick
            forwarding_sees_youngest_earlier_write;
          Alcotest.test_case "out-of-range location raises" `Quick
            out_of_range_location_raises;
          Alcotest.test_case "spec reads allocate nothing" `Quick
            (accesses_allocate_nothing ~reads:1 ~writes:0);
          Alcotest.test_case "spec writes allocate nothing" `Quick
            (accesses_allocate_nothing ~reads:0 ~writes:1);
        ] );
      ( "probe",
        [
          Alcotest.test_case "probes never change output" `Quick
            probes_do_not_change_output;
          Alcotest.test_case "telemetry sane" `Quick telemetry_is_sane;
          Alcotest.test_case "long run drops nothing" `Quick long_run_drops_nothing;
          Alcotest.test_case "probe dump fits calibration" `Quick
            probe_dump_fits_calibration;
        ] );
      ( "validate",
        [
          Alcotest.test_case "catches corrupted output" `Quick validate_catches_corruption;
          Alcotest.test_case "history round-trips real block" `Quick
            validate_history_round_trips;
          Alcotest.test_case "sim-vs-real ordering" `Slow sim_vs_real_ordering;
        ] );
    ]

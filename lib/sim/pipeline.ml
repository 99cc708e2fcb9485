type misspec_policy = Sched.misspec_policy = Serialize | Squash

type policy = Sched.policy = { misspec : misspec_policy; forwarding : bool }

let default_policy = Sched.default_policy

type sched_entry = Sched.sched_entry = {
  s_task : int;
  s_core : int;
  s_start : int;
  s_finish : int;
}

type loop_result = Sched.loop_result = {
  span : int;
  busy : int array;
  misspec_delayed : int;
  squashes : int;
  in_queue_high_water : int;
  out_queue_high_water : int;
  b_tasks_per_core : int array;
  schedule : sched_entry list;
}

type result = {
  total_time : int;
  sequential_time : int;
  loops : (string * loop_result) list;
}

(* Every schedule the simulator emits can be re-checked by Sim.Oracle.
   The default comes from the SIM_VALIDATE environment variable so
   scripts/check.sh (and any CI run) can turn the oracle on for the whole
   process; tests flip the ref directly. *)
let validate_default =
  ref
    (match Sys.getenv_opt "SIM_VALIDATE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let phase_letter = function Ir.Task.A -> 'A' | Ir.Task.B -> 'B' | Ir.Task.C -> 'C'

let sequential_result cfg ?(obs = Obs.Sink.null) (loop : Input.loop) =
  let w = Input.loop_work loop in
  let busy = Array.make cfg.Machine.Config.cores 0 in
  busy.(0) <- w;
  let observing = Obs.Sink.enabled obs in
  let _, schedule =
    Array.fold_left
      (fun (t, acc) (task : Ir.Task.t) ->
        let f = t + task.Ir.Task.work in
        if observing then begin
          Obs.Sink.emit obs
            (Obs.Event.Task_start
               {
                 time = t;
                 task = task.Ir.Task.id;
                 core = 0;
                 phase = phase_letter task.Ir.Task.phase;
                 iteration = task.Ir.Task.iteration;
                 work = task.Ir.Task.work;
               });
          Obs.Sink.emit obs
            (Obs.Event.Task_finish { time = f; task = task.Ir.Task.id; core = 0 })
        end;
        (f, { s_task = task.Ir.Task.id; s_core = 0; s_start = t; s_finish = f } :: acc))
      (0, []) loop.Input.tasks
  in
  {
    span = w;
    busy;
    misspec_delayed = 0;
    squashes = 0;
    in_queue_high_water = 0;
    out_queue_high_water = 0;
    b_tasks_per_core = [||];
    schedule = List.rev schedule;
  }

(* ------------------------------------------------------------------ *)
(* Static per-loop data.

   Everything the inner loop reads that depends only on the loop — task
   attributes, per-iteration views, dependence adjacency — is unpacked
   once into flat immutable int arrays.  Phases are encoded A=0 B=1 C=2,
   absent tasks as -1.  The per-node order of [in_idx]/[out_idx] ranges
   reproduces the historical cons-built adjacency lists (reverse edge
   order), which the squash walk's re-queue order depends on. *)

type static_data = {
  iters : int;
  v_a : int array;  (* iters: A task id or -1 *)
  v_c : int array;  (* iters: C task id or -1 *)
  v_bs : int array;  (* flat B ids, iteration-major, intra-sorted *)
  v_bs_off : int array;  (* iters + 1 segment offsets into v_bs *)
  t_work : int array;
  t_phase : int array;
  t_iter : int array;
  e_src : int array;
  e_dst : int array;
  e_spec : int array;  (* 0/1 *)
  e_soff : int array;
  e_doff : int array;
  in_off : int array;  (* ntasks + 1 *)
  in_idx : int array;  (* edge indices, consumer-major *)
  out_off : int array;
  out_idx : int array;
}

let phase_code = function Ir.Task.A -> 0 | Ir.Task.B -> 1 | Ir.Task.C -> 2

let build_static (loop : Input.loop) =
  let ntasks = Array.length loop.Input.tasks in
  let iters = Input.iterations loop in
  let t_work = Array.make (max 1 ntasks) 0 in
  let t_phase = Array.make (max 1 ntasks) 0 in
  let t_iter = Array.make (max 1 ntasks) 0 in
  Array.iteri
    (fun i (t : Ir.Task.t) ->
      t_work.(i) <- t.Ir.Task.work;
      t_phase.(i) <- phase_code t.Ir.Task.phase;
      t_iter.(i) <- t.Ir.Task.iteration)
    loop.Input.tasks;
  let v_a = Array.make (max 1 iters) (-1) in
  let v_c = Array.make (max 1 iters) (-1) in
  let bs = Array.make (max 1 iters) [] in
  Array.iter
    (fun (t : Ir.Task.t) ->
      let i = t.Ir.Task.iteration in
      match t.Ir.Task.phase with
      | Ir.Task.A -> v_a.(i) <- t.Ir.Task.id
      | Ir.Task.C -> v_c.(i) <- t.Ir.Task.id
      | Ir.Task.B -> bs.(i) <- t.Ir.Task.id :: bs.(i))
    loop.Input.tasks;
  let v_bs_off = Array.make (iters + 1) 0 in
  for i = 0 to iters - 1 do
    v_bs_off.(i + 1) <- v_bs_off.(i) + List.length bs.(i)
  done;
  let v_bs = Array.make (max 1 v_bs_off.(iters)) 0 in
  for i = 0 to iters - 1 do
    (* Stable sort by intra, ties in cons order — exactly the order the
       per-iteration views have always used. *)
    let sorted =
      List.sort
        (fun x y ->
          compare loop.Input.tasks.(x).Ir.Task.intra loop.Input.tasks.(y).Ir.Task.intra)
        bs.(i)
    in
    let k = ref v_bs_off.(i) in
    List.iter
      (fun b ->
        v_bs.(!k) <- b;
        incr k)
      sorted
  done;
  let edges = Array.of_list loop.Input.edges in
  let ne = Array.length edges in
  let e_src = Array.make (max 1 ne) 0 in
  let e_dst = Array.make (max 1 ne) 0 in
  let e_spec = Array.make (max 1 ne) 0 in
  let e_soff = Array.make (max 1 ne) 0 in
  let e_doff = Array.make (max 1 ne) 0 in
  Array.iteri
    (fun k (e : Input.edge) ->
      e_src.(k) <- e.Input.src;
      e_dst.(k) <- e.Input.dst;
      e_spec.(k) <- (if e.Input.speculated then 1 else 0);
      e_soff.(k) <- e.Input.src_offset;
      e_doff.(k) <- e.Input.dst_offset)
    edges;
  let in_off = Array.make (ntasks + 1) 0 in
  let out_off = Array.make (ntasks + 1) 0 in
  for k = 0 to ne - 1 do
    in_off.(e_dst.(k) + 1) <- in_off.(e_dst.(k) + 1) + 1;
    out_off.(e_src.(k) + 1) <- out_off.(e_src.(k) + 1) + 1
  done;
  for v = 0 to ntasks - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v);
    out_off.(v + 1) <- out_off.(v + 1) + out_off.(v)
  done;
  let in_idx = Array.make (max 1 ne) 0 in
  let out_idx = Array.make (max 1 ne) 0 in
  (* Fill each node's range from its end so that reading left-to-right
     yields reverse edge order (the historical [e :: acc] order). *)
  let in_cur = Array.init ntasks (fun v -> in_off.(v + 1)) in
  let out_cur = Array.init ntasks (fun v -> out_off.(v + 1)) in
  for k = 0 to ne - 1 do
    let d = e_dst.(k) in
    in_cur.(d) <- in_cur.(d) - 1;
    in_idx.(in_cur.(d)) <- k;
    let s = e_src.(k) in
    out_cur.(s) <- out_cur.(s) - 1;
    out_idx.(out_cur.(s)) <- k
  done;
  {
    iters;
    v_a;
    v_c;
    v_bs;
    v_bs_off;
    t_work;
    t_phase;
    t_iter;
    e_src;
    e_dst;
    e_spec;
    e_soff;
    e_doff;
    in_off;
    in_idx;
    out_off;
    out_idx;
  }

(* The static data depends only on the loop, not on the machine, yet a
   thread sweep re-enters run_loop once per core count with the same
   loop value.  Memoize per loop, keyed by physical identity — a
   structural duplicate would only recompute identical arrays, never a
   wrong result.  The mutex makes the cache safe when sweeps run
   concurrently in several domains (the cached arrays are immutable
   after construction); the size cap keeps it from growing without
   bound across long sessions. *)
module Loop_tbl = Hashtbl.Make (struct
  type t = Input.loop

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let static_cache : static_data Loop_tbl.t = Loop_tbl.create 64
let static_lock = Mutex.create ()

let static_data loop =
  Mutex.lock static_lock;
  match Loop_tbl.find_opt static_cache loop with
  | Some v ->
    Mutex.unlock static_lock;
    v
  | None ->
    Mutex.unlock static_lock;
    let v = build_static loop in
    Mutex.lock static_lock;
    if Loop_tbl.length static_cache >= 512 then Loop_tbl.reset static_cache;
    Loop_tbl.replace static_cache loop v;
    Mutex.unlock static_lock;
    v

(* ------------------------------------------------------------------ *)
(* Per-domain scratch.

   The mutable state of one simulation — task times, queue rings, the
   event heap, the completion log — lives in buffers reused across
   iterations and sweep points.  One scratch per domain (no sharing, no
   locks): with several pool domains simulating concurrently, the near
   absence of minor-heap allocation on this path is what keeps them from
   serializing on cross-domain minor-GC barriers. *)

type scratch = {
  arena : Simcore.Arena.t;
  events : Simcore.Iheap.t;
  mutable rings : Simcore.Ring.t array;  (* per-B-slot in-queues *)
  pending_wakes : (int, unit) Hashtbl.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        arena = Simcore.Arena.create ();
        events = Simcore.Iheap.create ();
        rings = [||];
        pending_wakes = Hashtbl.create 64;
      })

(* Arena slot assignments (see Simcore.Arena). *)
let slot_start = 0
and slot_finish = 1
and slot_completed = 2
and slot_generation = 3
and slot_min_restart = 4
and slot_assigned = 5
and slot_arrival = 6
and slot_dispatch_done = 7
and slot_committed = 8
and slot_sched = 9
and slot_seen = 10
and slot_gating = 11

let simulate_loop (cfg : Machine.Config.t) ?(policy = default_policy)
    ?(obs = Obs.Sink.null) (loop : Input.loop) =
  let n = cfg.Machine.Config.cores in
  let ntasks = Array.length loop.Input.tasks in
  if n <= 1 || ntasks = 0 then sequential_result cfg ~obs loop
  else begin
    let assignment =
      match Dswp.Planner.plan cfg with
      | Some a -> a
      | None -> assert false (* n > 1 *)
    in
    let lat = cfg.Machine.Config.comm_latency in
    let cap = cfg.Machine.Config.queue_capacity in
    let sd = static_data loop in
    let iters = sd.iters in
    let t_work = sd.t_work
    and t_phase = sd.t_phase
    and t_iter = sd.t_iter in
    let a_core = assignment.Dswp.Planner.a_core in
    let c_core = assignment.Dswp.Planner.c_core in
    let scratch = Domain.DLS.get scratch_key in
    let arena = scratch.arena in
    (* Task state (arena scratch; only cells < ntasks are ours). *)
    let start_time = Simcore.Arena.ints_filled arena slot_start ~len:ntasks ~fill:(-1) in
    let finish_time = Simcore.Arena.ints_filled arena slot_finish ~len:ntasks ~fill:(-1) in
    let completed = Simcore.Arena.ints_filled arena slot_completed ~len:ntasks ~fill:0 in
    let generation = Simcore.Arena.ints_filled arena slot_generation ~len:ntasks ~fill:0 in
    let min_restart = Simcore.Arena.ints_filled arena slot_min_restart ~len:ntasks ~fill:0 in
    let assigned_core =
      Simcore.Arena.ints_filled arena slot_assigned ~len:ntasks ~fill:(-1)
    in
    let arrival = Simcore.Arena.ints_filled arena slot_arrival ~len:ntasks ~fill:(-1) in
    (* Cores. *)
    let core_free = Array.make n 0 in
    let b_cores = Array.of_list assignment.Dswp.Planner.b_cores in
    let m = Array.length b_cores in
    if Array.length scratch.rings < m then
      scratch.rings <-
        Array.init m (fun i ->
            if i < Array.length scratch.rings then scratch.rings.(i)
            else Simcore.Ring.create ());
    let fifo = scratch.rings in
    for s = 0 to m - 1 do
      Simcore.Ring.clear fifo.(s)
    done;
    let in_occ = Array.make m 0 in
    let out_occ = Array.make m 0 in
    let enq_work = Array.make m 0 in
    let b_running = Array.make m (-1) in
    let b_done_count = Array.make m 0 in
    (* Per-run gating of edges: synchronized edges always gate their
       consumer's start; speculated edges gate under Serialize — and,
       under Squash, when the consumer is not a phase-B task.  The
       serial stages run on unversioned state and have no re-execution
       path, so speculation into them serializes on occurrence; only
       the parallel B stage runs eagerly and squashes. *)
    let ne = Array.length sd.e_spec in
    let gating = Simcore.Arena.ints arena slot_gating ~len:ne in
    for e = 0 to ne - 1 do
      gating.(e) <-
        (if sd.e_spec.(e) = 0 || policy.misspec = Serialize || t_phase.(sd.e_dst.(e)) <> 1
         then 1
         else 0)
    done;
    (* This run's counts: per-run locals, so a result depends only on
       (config, policy, loop). *)
    let misspec_delayed = ref 0 in
    let squash_count = ref 0 in
    let in_high = ref 0 in
    let out_high = ref 0 in
    let observing = Obs.Sink.enabled obs in
    let a_running = ref false in
    let c_running = ref false in
    (* Phase-A driver state: mode 0 = running iteration [a_iter]'s A
       task, 1 = dispatching its B tasks ([a_cursor] walks the v_bs
       segment), 2 = done.  Flat ints where an ARun/ADispatch/ADone
       variant used to be allocated on every transition. *)
    let a_mode = ref (if iters = 0 then 2 else 0) in
    let a_iter = ref 0 in
    let a_cursor = ref 0 in
    let dispatch_done =
      Simcore.Arena.ints_filled arena slot_dispatch_done ~len:iters ~fill:(-1)
    in
    let committed = Simcore.Arena.ints_filled arena slot_committed ~len:iters ~fill:0 in
    let c_next = ref 0 in
    let busy = Array.make n 0 in
    (* Completion log: flat quadruples (task, core, start, finish); the
       schedule list is materialized once at the end. *)
    let sched_buf = ref (Simcore.Arena.ints arena slot_sched ~len:4096) in
    let sched_len = ref 0 in
    let physical_core tid =
      match t_phase.(tid) with
      | 0 -> a_core
      | 2 -> c_core
      | _ -> b_cores.(assigned_core.(tid))
    in
    let record_completion tid =
      let need = !sched_len + 4 in
      if need > Array.length !sched_buf then begin
        let bigger = Simcore.Arena.ints arena slot_sched ~len:(2 * need) in
        Array.blit !sched_buf 0 bigger 0 !sched_len;
        sched_buf := bigger
      end;
      let b = !sched_buf in
      b.(!sched_len) <- tid;
      b.(!sched_len + 1) <- physical_core tid;
      b.(!sched_len + 2) <- start_time.(tid);
      b.(!sched_len + 3) <- finish_time.(tid);
      sched_len := !sched_len + 4
    in
    (* Event queue: payload a = task id for a Finish (with generation in
       payload b), or -1 for a bare Wake. *)
    let events = scratch.events in
    Simcore.Iheap.clear events;
    let now = ref 0 in
    (* Occupancy high-water marks.  Every call is paired with a
       Queue_push/Queue_pop event at the same [!now], so a recorded
       stream carries the same occupancy samples
       (Obs.Summary.decode). *)
    let note_in_occ slot = if in_occ.(slot) > !in_high then in_high := in_occ.(slot) in
    let note_out_occ slot = if out_occ.(slot) > !out_high then out_high := out_occ.(slot) in
    let push_finish tid =
      Simcore.Iheap.add events ~prio:finish_time.(tid) tid generation.(tid)
    in
    (* Wakes are deduplicated: a blocked task re-requests the same wake
       time on every sweep, and without the filter the heap grows
       quadratically. *)
    let pending_wakes = scratch.pending_wakes in
    Hashtbl.reset pending_wakes;
    let push_wake t =
      if t > !now && not (Hashtbl.mem pending_wakes t) then begin
        Hashtbl.add pending_wakes t ();
        Simcore.Iheap.add events ~prio:t (-1) 0
      end
    in
    (* Constraint edge [e] puts on its consumer's start time, or -1 when
       the producer is not far enough along: finished (default), or
       merely started when eager forwarding is on. *)
    let constraint_of e =
      let p = sd.e_src.(e) in
      if policy.forwarding then begin
        if start_time.(p) < 0 then -1
        else
          let c = start_time.(p) + sd.e_soff.(e) + lat - sd.e_doff.(e) in
          if c > 0 then c else 0
      end
      else if completed.(p) = 1 then finish_time.(p) + lat
      else -1
    in
    (* Earliest legal start of a task given a base time.  Results land
       in [rt_t] (clamped by min_restart) and [rt_ns] (the non-
       speculated bound, for misspec accounting); returns false when
       some gating producer is not ready.  A tail-recursive scan over
       the CSR in-edge range — no options, no tuples, no closures per
       call. *)
    let rt_t = ref 0 in
    let rt_ns = ref 0 in
    let rec ready_scan tid k hi acc acc_ns =
      if k >= hi then begin
        rt_t := (if acc > min_restart.(tid) then acc else min_restart.(tid));
        rt_ns := acc_ns;
        true
      end
      else begin
        let e = sd.in_idx.(k) in
        if gating.(e) = 1 then begin
          let c = constraint_of e in
          if c < 0 then false
          else
            ready_scan tid (k + 1) hi
              (if c > acc then c else acc)
              (if sd.e_spec.(e) = 0 && c > acc_ns then c else acc_ns)
        end
        else ready_scan tid (k + 1) hi acc acc_ns
      end
    in
    let ready_time tid base = ready_scan tid sd.in_off.(tid) sd.in_off.(tid + 1) base base in
    let start_task tid core t =
      start_time.(tid) <- t;
      finish_time.(tid) <- t + t_work.(tid);
      busy.(core) <- busy.(core) + t_work.(tid);
      if observing then
        Obs.Sink.emit obs
          (Obs.Event.Task_start
             {
               time = t;
               task = tid;
               core;
               phase = (match t_phase.(tid) with 0 -> 'A' | 1 -> 'B' | _ -> 'C');
               iteration = t_iter.(tid);
               work = t_work.(tid);
             });
      push_finish tid
    in
    (* Squash a task (and transitively any started consumer of it).
       Only phase-B tasks ever get here: speculated edges into A or C
       gate their consumer's start instead (see gating), and the
       transitive walk below skips non-B destinations for the same
       reason — they started only after this producer's first finish,
       through a gating edge. *)
    let rec squash tid =
      if start_time.(tid) >= 0 && committed.(t_iter.(tid)) = 0 then begin
        incr squash_count;
        generation.(tid) <- generation.(tid) + 1;
        for k = sd.out_off.(tid) to sd.out_off.(tid + 1) - 1 do
          let dst = sd.e_dst.(sd.out_idx.(k)) in
          if t_phase.(dst) = 1 then squash dst
        done;
        if t_phase.(tid) = 1 then begin
          let slot = assigned_core.(tid) in
          let core = b_cores.(slot) in
          if b_running.(slot) = tid then begin
            (* Aborted mid-run: the core only spent [!now - start] on the
               doomed attempt.  start_task charged the full work up
               front, so roll back the not-yet-executed remainder —
               otherwise per-core busy (charged again on the re-run)
               would exceed the span. *)
            let elapsed = !now - start_time.(tid) in
            busy.(core) <- busy.(core) - (t_work.(tid) - elapsed);
            if observing then
              Obs.Sink.emit obs
                (Obs.Event.Task_squash { time = !now; task = tid; core; elapsed });
            b_running.(slot) <- -1;
            core_free.(core) <- !now
          end
          else if completed.(tid) = 1 then begin
            (* Already finished: the whole run was executed (its full
               work stays in busy as genuine waste); withdraw its
               out-queue entry and put its work back into the
               outstanding-work metric (a running task never left it). *)
            out_occ.(slot) <- out_occ.(slot) - 1;
            note_out_occ slot;
            enq_work.(slot) <- enq_work.(slot) + t_work.(tid);
            if observing then begin
              Obs.Sink.emit obs
                (Obs.Event.Queue_pop
                   {
                     time = !now;
                     queue = Obs.Event.Out_queue;
                     slot;
                     occupancy = out_occ.(slot);
                     task = tid;
                   });
              Obs.Sink.emit obs
                (Obs.Event.Task_squash
                   { time = !now; task = tid; core; elapsed = t_work.(tid) })
            end
          end;
          (* Back to the head of its in-queue for re-execution.  The
             re-insert may push occupancy past queue_capacity for a
             moment — the squashed task reclaims the slot the capacity
             check released when it issued; only fresh dispatches from A
             respect the bound.  The high-water mark must see it (the
             oracle allows up to capacity + squashes when re-execution
             happened). *)
          Simcore.Ring.push_front fifo.(slot) tid;
          in_occ.(slot) <- in_occ.(slot) + 1;
          note_in_occ slot;
          if observing then
            Obs.Sink.emit obs
              (Obs.Event.Queue_push
                 {
                   time = !now;
                   queue = Obs.Event.In_queue;
                   slot;
                   occupancy = in_occ.(slot);
                   task = tid;
                 })
        end
        else
          (* Unreachable: speculation into the serial stages gates their
             start (see gating), so only B tasks are ever squashed. *)
          assert false;
        start_time.(tid) <- -1;
        finish_time.(tid) <- -1;
        completed.(tid) <- 0
      end
    in
    (* Max of finish_time + lat over a committed iteration's B tasks, or
       -1 while any of them is still incomplete. *)
    let rec delivery_scan k hi acc =
      if k >= hi then acc
      else begin
        let b = sd.v_bs.(k) in
        if completed.(b) = 0 then -1
        else
          let f = finish_time.(b) + lat in
          delivery_scan (k + 1) hi (if f > acc then f else acc)
      end
    in
    let try_start_c () =
      if (not !c_running) && !c_next < iters then begin
        let i = !c_next in
        let bs_lo = sd.v_bs_off.(i) and bs_hi = sd.v_bs_off.(i + 1) in
        let delivery =
          if bs_lo = bs_hi then
            if dispatch_done.(i) < 0 then -1 else dispatch_done.(i) + lat
          else delivery_scan bs_lo bs_hi 0
        in
        if delivery < 0 then false
        else begin
          let base = if delivery > core_free.(c_core) then delivery else core_free.(c_core) in
          let c_tid = sd.v_c.(i) in
          let ready =
            if c_tid < 0 then begin
              rt_t := base;
              rt_ns := base;
              true
            end
            else ready_time c_tid base
          in
          if not ready then false
          else begin
            let t = !rt_t and t_nonspec = !rt_ns in
            if t > !now then begin
              push_wake t;
              false
            end
            else begin
              (* Commit iteration i: consume the out-queue entries. *)
              for k = bs_lo to bs_hi - 1 do
                let b = sd.v_bs.(k) in
                let slot = assigned_core.(b) in
                out_occ.(slot) <- out_occ.(slot) - 1;
                note_out_occ slot;
                if observing then
                  Obs.Sink.emit obs
                    (Obs.Event.Queue_pop
                       {
                         time = !now;
                         queue = Obs.Event.Out_queue;
                         slot;
                         occupancy = out_occ.(slot);
                         task = b;
                       })
              done;
              committed.(i) <- 1;
              if observing then
                Obs.Sink.emit obs (Obs.Event.Iter_commit { time = !now; iteration = i });
              incr c_next;
              if c_tid >= 0 then begin
                if t > t_nonspec then incr misspec_delayed;
                start_task c_tid c_core !now;
                core_free.(c_core) <- finish_time.(c_tid);
                if t_work.(c_tid) > 0 then c_running := true
                else begin
                  completed.(c_tid) <- 1;
                  record_completion c_tid;
                  if observing then
                    Obs.Sink.emit obs
                      (Obs.Event.Task_finish { time = !now; task = c_tid; core = c_core })
                end
              end;
              true
            end
          end
        end
      end
      else false
    in
    let try_start_b slot =
      if b_running.(slot) >= 0 then false
      else if out_occ.(slot) >= cap then false
      else if Simcore.Ring.is_empty fifo.(slot) then false
      else begin
        let tid = Simcore.Ring.peek_front_exn fifo.(slot) in
        if arrival.(tid) > !now then begin
          push_wake arrival.(tid);
          false
        end
        else begin
          let base =
            if arrival.(tid) > core_free.(b_cores.(slot)) then arrival.(tid)
            else core_free.(b_cores.(slot))
          in
          if not (ready_time tid base) then false
          else begin
            let t = !rt_t and t_nonspec = !rt_ns in
            if t > !now then begin
              push_wake t;
              false
            end
            else begin
              let _ = Simcore.Ring.pop_front_exn fifo.(slot) in
              in_occ.(slot) <- in_occ.(slot) - 1;
              note_in_occ slot;
              if observing then
                Obs.Sink.emit obs
                  (Obs.Event.Queue_pop
                     {
                       time = !now;
                       queue = Obs.Event.In_queue;
                       slot;
                       occupancy = in_occ.(slot);
                       task = tid;
                     });
              (* enq_work keeps counting the running task until it
                 finishes: dispatch balances on outstanding work. *)
              if t > t_nonspec then incr misspec_delayed;
              start_task tid b_cores.(slot) !now;
              core_free.(b_cores.(slot)) <- finish_time.(tid);
              b_running.(slot) <- tid;
              true
            end
          end
        end
      end
    in
    (* Least-loaded B slot with in-queue space, scanning high to low so
       ties go to the lowest slot (the historical scan order). *)
    let rec best_slot s best =
      if s < 0 then best
      else
        best_slot (s - 1)
          (if in_occ.(s) < cap && (best < 0 || enq_work.(s) <= enq_work.(best)) then s
           else best)
    in
    (* Dispatch iteration [i]'s not-yet-dispatched B tasks (the v_bs
       segment from [a_cursor]).  Returns 2 when the segment is fully
       dispatched, 1 when stalled after moving at least one task, 0 when
       stalled without moving any. *)
    let rec dispatch_items i cur hi moved =
      if cur >= hi then begin
        dispatch_done.(i) <- !now;
        a_cursor := cur;
        2
      end
      else begin
        let b = sd.v_bs.(cur) in
        let s = best_slot (m - 1) (-1) in
        if s < 0 then begin
          a_cursor := cur;
          if moved then 1 else 0
        end
        else begin
          Simcore.Ring.push_back fifo.(s) b;
          in_occ.(s) <- in_occ.(s) + 1;
          note_in_occ s;
          enq_work.(s) <- enq_work.(s) + t_work.(b);
          assigned_core.(b) <- s;
          arrival.(b) <- !now + lat;
          if observing then begin
            Obs.Sink.emit obs (Obs.Event.Dispatch { time = !now; task = b; slot = s });
            Obs.Sink.emit obs
              (Obs.Event.Queue_push
                 {
                   time = !now;
                   queue = Obs.Event.In_queue;
                   slot = s;
                   occupancy = in_occ.(s);
                   task = b;
                 })
          end;
          dispatch_items i (cur + 1) hi true
        end
      end
    in
    let try_advance_a () =
      match !a_mode with
      | 2 -> false
      | 1 ->
        let i = !a_iter in
        let code = dispatch_items i !a_cursor sd.v_bs_off.(i + 1) false in
        if code = 2 then begin
          if i + 1 < iters then begin
            a_iter := i + 1;
            a_mode := 0
          end
          else a_mode := 2;
          true
        end
        else code = 1
      | _ ->
        (* mode 0: run iteration [a_iter]'s A task, if any *)
        if !a_running then false
        else begin
          let i = !a_iter in
          let a_tid = sd.v_a.(i) in
          if a_tid < 0 then begin
            a_mode := 1;
            a_cursor := sd.v_bs_off.(i);
            true
          end
          else if not (ready_time a_tid core_free.(a_core)) then false
          else begin
            let t = !rt_t and t_nonspec = !rt_ns in
            if t > !now then begin
              push_wake t;
              false
            end
            else begin
              if t > t_nonspec then incr misspec_delayed;
              start_task a_tid a_core !now;
              core_free.(a_core) <- finish_time.(a_tid);
              a_running := true;
              true
            end
          end
        end
    in
    let progress = ref true in
    let schedule_all () =
      progress := true;
      while !progress do
        progress := false;
        if try_start_c () then progress := true;
        for s = 0 to m - 1 do
          if try_start_b s then progress := true
        done;
        if try_advance_a () then progress := true
      done
    in
    schedule_all ();
    let exhausted = ref false in
    while not !exhausted do
      if not (Simcore.Iheap.pop events) then exhausted := true
      else begin
        let t = Simcore.Iheap.popped_prio events in
        let tid = Simcore.Iheap.popped_a events in
        let gen = Simcore.Iheap.popped_b events in
        now := (if t > !now then t else !now);
        Hashtbl.remove pending_wakes t;
        if tid < 0 then begin
          if observing then Obs.Sink.emit obs (Obs.Event.Wake { time = !now })
        end
        else if gen = generation.(tid) && start_time.(tid) >= 0 && completed.(tid) = 0
        then begin
          completed.(tid) <- 1;
          record_completion tid;
          if observing then
            Obs.Sink.emit obs
              (Obs.Event.Task_finish { time = !now; task = tid; core = physical_core tid });
          (match t_phase.(tid) with
          | 0 ->
            a_running := false;
            if !a_mode = 0 && sd.v_a.(!a_iter) = tid then begin
              a_mode := 1;
              a_cursor := sd.v_bs_off.(!a_iter)
            end
          | 1 ->
            let slot = assigned_core.(tid) in
            if b_running.(slot) = tid then b_running.(slot) <- -1;
            enq_work.(slot) <- enq_work.(slot) - t_work.(tid);
            b_done_count.(slot) <- b_done_count.(slot) + 1;
            out_occ.(slot) <- out_occ.(slot) + 1;
            note_out_occ slot;
            if observing then
              Obs.Sink.emit obs
                (Obs.Event.Queue_push
                   {
                     time = !now;
                     queue = Obs.Event.Out_queue;
                     slot;
                     occupancy = out_occ.(slot);
                     task = tid;
                   })
          | _ -> c_running := false);
          (* Under Squash, a finishing producer invalidates consumers
             that started too early on a speculated edge. *)
          if policy.misspec = Squash then
            for k = sd.out_off.(tid) to sd.out_off.(tid + 1) - 1 do
              let e = sd.out_idx.(k) in
              let dst = sd.e_dst.(e) in
              if sd.e_spec.(e) = 1
                 && t_phase.(dst) = 1
                 && start_time.(dst) >= 0
                 && start_time.(dst) < finish_time.(tid)
                 && committed.(t_iter.(dst)) = 0
              then begin
                squash dst;
                if finish_time.(tid) + lat > min_restart.(dst) then
                  min_restart.(dst) <- finish_time.(tid) + lat
              end
            done
        end;
        schedule_all ()
      end
    done;
    let span = ref 0 in
    let all_done = ref true in
    for tid = 0 to ntasks - 1 do
      if finish_time.(tid) > !span then span := finish_time.(tid);
      if completed.(tid) = 0 then all_done := false
    done;
    if not !all_done then
      failwith (Printf.sprintf "Pipeline.run_loop: deadlock in loop %s" loop.Input.name);
    (* A task completed, squashed, and re-run appears twice in the raw
       log; only its last completion is real.  Scan newest-to-oldest,
       keep first sight of each task, prepend — the kept entries come
       out in completion order. *)
    let schedule =
      let seen = Simcore.Arena.ints_filled arena slot_seen ~len:ntasks ~fill:0 in
      let b = !sched_buf in
      let acc = ref [] in
      let k = ref (!sched_len - 4) in
      while !k >= 0 do
        let tid = b.(!k) in
        if seen.(tid) = 0 then begin
          seen.(tid) <- 1;
          acc :=
            { s_task = tid; s_core = b.(!k + 1); s_start = b.(!k + 2); s_finish = b.(!k + 3) }
            :: !acc
        end;
        k := !k - 4
      done;
      !acc
    in
    {
      span = !span;
      busy;
      misspec_delayed = !misspec_delayed;
      squashes = !squash_count;
      in_queue_high_water = !in_high;
      out_queue_high_water = !out_high;
      b_tasks_per_core = b_done_count;
      schedule;
    }
  end

let run_loop (cfg : Machine.Config.t) ?(policy = default_policy) ?validate ?obs
    (loop : Input.loop) =
  let r = simulate_loop cfg ~policy ?obs loop in
  let validate = match validate with Some v -> v | None -> !validate_default in
  if validate then Oracle.validate_exn cfg ~policy loop r;
  r

let run cfg ?(policy = default_policy) ?validate ?(obs = Obs.Sink.null) (input : Input.t) =
  let seq = Input.total_work input in
  let loops = ref [] in
  let total =
    List.fold_left
      (fun acc seg ->
        match seg with
        | Input.Serial w -> acc + w
        | Input.Parallel loop ->
          (* Rebase the loop's local event times to program time, and
             bracket them so a whole-program trace shows the loop
             structure. *)
          let loop_obs = Obs.Sink.offset acc obs in
          if Obs.Sink.enabled loop_obs then
            Obs.Sink.emit loop_obs (Obs.Event.Loop_begin { time = 0; loop = loop.Input.name });
          let r = run_loop cfg ~policy ?validate ~obs:loop_obs loop in
          if Obs.Sink.enabled loop_obs then
            Obs.Sink.emit loop_obs
              (Obs.Event.Loop_end { time = r.span; loop = loop.Input.name; span = r.span });
          loops := (loop.Input.name, r) :: !loops;
          acc + r.span)
      0 input.Input.segments
  in
  { total_time = total; sequential_time = seq; loops = List.rev !loops }

let metrics cfg (input : Input.t) =
  let recorder = Obs.Sink.recorder () in
  let obs = Obs.Sink.record recorder in
  let results =
    List.filter_map
      (function
        | Input.Serial _ -> None | Input.Parallel loop -> Some (run_loop cfg ~obs loop))
      input.Input.segments
  in
  (* A sequential run (one core, or no tasks) has no B slots and its
     events are not the pipeline's: it reports nothing. *)
  let slots =
    List.fold_left (fun acc r -> max acc (Array.length r.b_tasks_per_core)) 0 results
  in
  if slots = 0 then Obs.Summary.no_metrics
  else
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    Obs.Summary.decode ~slots
      ~misspec_delayed:(sum (fun r -> r.misspec_delayed))
      ~squashes:(sum (fun r -> r.squashes))
      (Obs.Sink.events recorder)

let speedup r =
  if r.total_time = 0 then 1.0
  else float_of_int r.sequential_time /. float_of_int r.total_time

type role_stats = {
  rs_role : string;
  rs_items : int;
  rs_busy : float;
  rs_starved : float;
  rs_blocked : float;
}

type stats = {
  threads : int;
  replicas : int;
  seconds : float;
  squashes : int;
  violations : int;
  roles : role_stats array;
}

type queue_stat = {
  qs_queue : Obs.Event.queue;
  qs_slot : int;
  qs_capacity : int;
  qs_high_water : int;
  qs_pushes : int;
}

type role_probe = {
  rp_role : string;
  rp_stage : Obs.Hist.t;
  rp_push_stall : Obs.Hist.t;
  rp_pop_stall : Obs.Hist.t;
  rp_squash : Obs.Hist.t;
  rp_validate : Obs.Hist.t;
}

type rings = { loop : string; span_us : int; probes : Obs.Probe.t array }

type telemetry = {
  tl_roles : role_probe array;
  tl_queues : queue_stat list;
  tl_dropped : int;
  tl_rings : rings;
}

type result = { output : string; stats : stats; telemetry : telemetry option }

let now = Unix.gettimeofday

(* A speculative execution's outcome.  [res] is mutable so a recycled
   job stores the next result in place, allocating nothing. *)
type 'r outcome = Ran of { mutable res : 'r } | Raised of exn

(* One iteration's execution, handed from B to C: the item (kept for a
   squash's re-execution), the log of its reads and buffered writes,
   and its outcome.  C hands every job back to its replica through a
   return ring, so a warm run allocates none. *)
type ('i, 'r) job = {
  mutable iter : int;
  mutable item : 'i;
  log : Spec_store.log;
  mutable out : 'r outcome;
}

(* A new job's outcome until B first executes it; C never sees it. *)
exception Not_executed

(* Probe record kinds.  Every record's time is microseconds since the
   run's own origin, taken when the operation ended.  The timed kinds
   carry a duration in [a] and an iteration (or, for stalls, a queue
   slot) in [b]; the queue kinds carry the iteration in [a] and the
   ring's occupancy after the operation in [b]; a commit carries its
   iteration in [a].  DESIGN.md §12 tabulates which {!Obs.Event} each
   kind decodes to. *)
let k_stage = 0
let k_push_stall = 1
let k_pop_stall = 2
let k_squash = 3
let k_validate = 4
let k_push = 5
let k_pop = 6
let k_commit = 7

(* Per-role seconds.  An all-float record is stored flat, so updating
   a field stores an unboxed float and allocates nothing. *)
type clocks = {
  mutable busy : float;
  mutable starved : float;
  mutable blocked : float;
  mutable span_t0 : float;  (* start of the current stage body *)
  mutable stall_t0 : float;  (* start of the current stall *)
}

(* Per-role accounting; each role mutates only its own record, so no
   synchronization is needed (the records are read after the batch
   joins). *)
type acct = {
  mutable items : int;
  clk : clocks;
  prb : Obs.Probe.t option;  (* written only by the owning role *)
}

let make_acct ~prb () =
  {
    items = 0;
    clk = { busy = 0.; starved = 0.; blocked = 0.; span_t0 = 0.; stall_t0 = 0. };
    prb;
  }

(* Role [k] of a layout whose C role is [c] (so [c - 1] B replicas,
   one fused B at two domains).  A pushes into the in-queues and B into
   the out-queues; B pops the in-queues and C the out-queues.  The
   fused B+C role records its B half on B's ring and its C half on C's,
   so the same mapping holds at every thread count. *)
let push_queue k = if k = 0 then Obs.Event.In_queue else Obs.Event.Out_queue
let pop_queue ~c k = if k = c then Obs.Event.Out_queue else Obs.Event.In_queue

(* Upper bound on the records role [k] writes per item: A writes stage,
   push-stall and push; a B replica pop-stall, pop, stage, push-stall
   and push; C pop-stall, pop, validate, squash, stage and commit.  A
   ring of [bound * items + 1] records (the one extra is the pop stall
   that ends at end of stream) therefore never wraps. *)
let records_per_item ~c k = if k = 0 then 3 else if k = c then 6 else 5

(* Same bounded spin-then-sleep policy as {!Spsc.push}: on an
   oversubscribed machine a spinning role must yield its timeslice to
   whichever role can make progress. *)
let backoff k = if k < 512 then Domain.cpu_relax () else Unix.sleepf 5e-5

(* The stall path.  Clocks are read only once the ring looked empty or
   full, so a smooth pipeline reads none, and nothing here allocates:
   the stall start lives in the role's [clocks], and the spin loops are
   top-level functions rather than closures over the queue and item. *)
let stall_done ~us acct ~kind ~slot =
  let d = now () -. acct.clk.stall_t0 in
  if kind = k_pop_stall then acct.clk.starved <- acct.clk.starved +. d
  else acct.clk.blocked <- acct.clk.blocked +. d;
  match acct.prb with
  | None -> ()
  | Some p ->
    Obs.Probe.record p ~kind ~time:(us ()) ~a:(int_of_float (d *. 1e6)) ~b:slot

let rec pop_stalled ~us acct ~slot q k =
  match Spsc.try_pop q with
  | x ->
    stall_done ~us acct ~kind:k_pop_stall ~slot;
    x
  | exception Spsc.Empty ->
    backoff k;
    pop_stalled ~us acct ~slot q (k + 1)
  | exception Spsc.Closed ->
    stall_done ~us acct ~kind:k_pop_stall ~slot;
    raise_notrace Spsc.Closed

(* @raise Spsc.Closed at the end of the stream. *)
let pop_acct ~us ~slot q acct =
  match Spsc.try_pop q with
  | x -> x
  | exception Spsc.Empty ->
    acct.clk.stall_t0 <- now ();
    pop_stalled ~us acct ~slot q 0

let rec push_stalled ~us acct ~slot q x k =
  if Spsc.try_push q x then stall_done ~us acct ~kind:k_push_stall ~slot
  else begin
    backoff k;
    push_stalled ~us acct ~slot q x (k + 1)
  end

let push_acct ~us ~slot q acct x =
  if not (Spsc.try_push q x) then begin
    acct.clk.stall_t0 <- now ();
    push_stalled ~us acct ~slot q x 0
  end

let seq_result staged =
  let t0 = now () in
  let output = Staged.run_seq staged in
  {
    output;
    stats =
      {
        threads = 1;
        replicas = 0;
        seconds = now () -. t0;
        squashes = 0;
        violations = 0;
        roles = [||];
      };
    telemetry = None;
  }

(* Post-join drain of the rings into per-role histograms and per-queue
   stats.  A push record's occupancy is read after the push, so its
   maximum per (queue, slot) is the ring's high-water mark. *)
let drain ~loop ~span_us ~r ~fused ~qcap ~role_name probes =
  let row q = if q = Obs.Event.In_queue then 0 else 1 in
  let high_water = Array.make_matrix 2 r 0 and pushes = Array.make_matrix 2 r 0 in
  let role_probe k p =
    let rp =
      {
        rp_role = role_name k;
        rp_stage = Obs.Hist.create ();
        rp_push_stall = Obs.Hist.create ();
        rp_pop_stall = Obs.Hist.create ();
        rp_squash = Obs.Hist.create ();
        rp_validate = Obs.Hist.create ();
      }
    in
    List.iter
      (fun (e : Obs.Probe.entry) ->
        let kind = e.e_kind in
        if kind = k_push then begin
          let q = row (push_queue k) and slot = e.e_a mod r in
          high_water.(q).(slot) <- max high_water.(q).(slot) e.e_b;
          pushes.(q).(slot) <- pushes.(q).(slot) + 1
        end
        else if kind = k_stage then Obs.Hist.add rp.rp_stage e.e_a
        else if kind = k_push_stall then Obs.Hist.add rp.rp_push_stall e.e_a
        else if kind = k_pop_stall then Obs.Hist.add rp.rp_pop_stall e.e_a
        else if kind = k_squash then Obs.Hist.add rp.rp_squash e.e_a
        else if kind = k_validate then Obs.Hist.add rp.rp_validate e.e_a)
      (Obs.Probe.entries p);
    rp
  in
  let tl_roles = Array.mapi role_probe probes in
  let queues q =
    List.init r (fun slot ->
        {
          qs_queue = q;
          qs_slot = slot;
          qs_capacity = qcap;
          qs_high_water = high_water.(row q).(slot);
          qs_pushes = pushes.(row q).(slot);
        })
  in
  {
    tl_roles;
    tl_queues =
      queues Obs.Event.In_queue @ (if fused then [] else queues Obs.Event.Out_queue);
    tl_dropped = Array.fold_left (fun acc p -> acc + Obs.Probe.dropped p) 0 probes;
    tl_rings = { loop; span_us; probes };
  }

let run ?pool ?(queue_capacity = 64) ?(probe = false) ?span_registry ~threads ~name staged =
  let (Staged.Pipeline s) = staged in
  let go d p =
    let fused = d = 2 in
    let r = if fused then 1 else d - 2 in
    let n = s.Staged.iterations in
    let accts =
      Array.init (r + 2) (fun k ->
          let prb =
            if not probe then None
            else
              let items = if k = 0 || k = r + 1 then n else (n + r - 1) / r in
              let capacity = (records_per_item ~c:(r + 1) k * items) + 1 in
              Some (Obs.Probe.create ~capacity ~domain:k ())
          in
          make_acct ~prb ())
    in
    let t0 = ref (now ()) in
    let us () = int_of_float ((now () -. !t0) *. 1e6) in
    let record acct ~kind ~a ~b =
      match acct.prb with
      | None -> ()
      | Some p -> Obs.Probe.record p ~kind ~time:(us ()) ~a ~b
    in
    let buf = Buffer.create 4096 in
    let squashes = ref 0 and violations = ref 0 in
    let error = Atomic.make None in
    let new_queues () = Array.init r (fun _ -> Spsc.create ~capacity:queue_capacity ()) in
    let a2b = new_queues () in
    let b2c = if fused then [||] else new_queues () in
    let poison_all () =
      Array.iter Spsc.poison a2b;
      Array.iter Spsc.poison b2c
    in
    (* Per-task clocks are read only when probing; with it off a role's
       busy time is derived once, from its wall clock, in [run_role]. *)
    let span_begin acct = if probe then acct.clk.span_t0 <- now () in
    let span_end acct ~iteration =
      acct.items <- acct.items + 1;
      if probe then begin
        let d = now () -. acct.clk.span_t0 in
        acct.clk.busy <- acct.clk.busy +. d;
        record acct ~kind:k_stage ~a:(int_of_float (d *. 1e6)) ~b:iteration
      end
    in
    (* A queue record's occupancy is read after the operation, and only
       when probing: [Spsc.length] reads both cursors. *)
    let pushed acct q i = if probe then record acct ~kind:k_push ~a:i ~b:(Spsc.length q) in
    let popped acct q i = if probe then record acct ~kind:k_pop ~a:i ~b:(Spsc.length q) in
    (* The fused B+C role executes each iteration against fully
       committed state, so only replicated B forwards. *)
    let store = Spec_store.create ~forwarding:(not fused) s.Staged.init in
    let read_committed loc = Spec_store.committed store loc in
    (* Each replica cycles its jobs through a return ring from C: it
       takes a free job or, when none is back yet, makes one.  A job is
       made only when every other is in flight, so the ring never
       overflows; the fused role keeps one job for the whole run. *)
    let free =
      Array.init (if fused then 0 else r) (fun k ->
          Spsc.create ~capacity:(Spsc.capacity b2c.(k) + 2) ())
    in
    let new_job i item =
      { iter = i; item; log = Spec_store.log_create (); out = Raised Not_executed }
    in
    let reuse j i item =
      j.iter <- i;
      j.item <- item;
      j
    in
    let take_job k i item =
      match Spsc.try_pop free.(k) with
      | j -> reuse j i item
      | exception Spsc.Empty -> new_job i item
    in
    (* Stage A deals iteration [i] to replica [i mod r], so replica [k]
       receives iterations [k], [k + r], [k + 2r], ... in order and the
       item travels alone: no hop carries its index. *)
    let role_a () =
      let acct = accts.(0) in
      for i = 0 to n - 1 do
        span_begin acct;
        let item = s.Staged.produce i in
        span_end acct ~iteration:i;
        push_acct ~us ~slot:(i mod r) a2b.(i mod r) acct item;
        pushed acct a2b.(i mod r) i
      done;
      Array.iter Spsc.close a2b
    in
    (* A B role's body runner.  [read] and [write] are built once, over
       the log of the job in hand, so each costs a lookup and two stores
       into the log.  A raise out of a speculative body is deferred to
       commit: it may be an artefact of a stale read. *)
    let executor () =
      let log = ref (Spec_store.log_create ()) in
      let read loc = Spec_store.read store !log loc
      and write loc v = Spec_store.write !log loc v in
      fun acct j ->
        log := j.log;
        span_begin acct;
        Spec_store.start j.log ~iteration:j.iter;
        (match s.Staged.transform ~read ~write j.item with
        | res -> ( match j.out with Ran o -> o.res <- res | Raised _ -> j.out <- Ran { res })
        | exception e -> j.out <- Raised e);
        span_end acct ~iteration:j.iter;
        Spec_store.publish store j.log
    in
    (* C's own log, for re-executions against committed state. *)
    let redo = Spec_store.log_create () in
    let write_redo loc v = Spec_store.write redo loc v in
    let finish_commit acct j log res =
      Spec_store.commit store log;
      Spec_store.retire store j.log;
      span_begin acct;
      s.Staged.consume buf j.iter res;
      span_end acct ~iteration:j.iter;
      record acct ~kind:k_commit ~a:j.iter ~b:0
    in
    (* Commit-time validation: every value iteration [i] read must equal
       the committed value now that all earlier iterations have
       committed — i.e. exactly what the sequential run would have
       read.  A stale read squashes the iteration: it re-executes
       against committed state here, on C's domain, and only then
       commits. *)
    let commit_job acct j =
      let i = j.iter in
      let tv = if probe then now () else 0. in
      let stale = Spec_store.stale store j.log in
      if probe then
        record acct ~kind:k_validate ~a:(int_of_float ((now () -. tv) *. 1e6)) ~b:i;
      if stale = 0 then begin
        match j.out with Ran o -> finish_commit acct j j.log o.res | Raised e -> raise e
      end
      else begin
        incr squashes;
        violations := !violations + stale;
        let tb = if probe then now () else 0. in
        Spec_store.start redo ~iteration:i;
        let res = s.Staged.transform ~read:read_committed ~write:write_redo j.item in
        if probe then begin
          let d = now () -. tb in
          acct.clk.busy <- acct.clk.busy +. d;
          record acct ~kind:k_squash ~a:(int_of_float (d *. 1e6)) ~b:i
        end;
        finish_commit acct j redo res
      end
    in
    (* Role [k] runs on accts.(k): A, the B replicas (or the fused B+C
       role at two domains), C.  The per-item loops call only known
       functions, never a [(fun () -> ...)] body (without flambda each
       would be a closure allocated per item), so with probing off a
       warm run allocates nothing per iteration in the runtime. *)
    let role_b k () =
      let acct = accts.(k + 1) and execute = executor () in
      let rec loop i =
        match pop_acct ~us ~slot:k a2b.(k) acct with
        | exception Spsc.Closed -> Spsc.close b2c.(k)
        | item ->
          popped acct a2b.(k) i;
          let j = take_job k i item in
          execute acct j;
          push_acct ~us ~slot:k b2c.(k) acct j;
          pushed acct b2c.(k) i;
          loop (i + r)
      in
      loop k
    in
    let role_c () =
      let acct = accts.(r + 1) in
      for i = 0 to n - 1 do
        match pop_acct ~us ~slot:(i mod r) b2c.(i mod r) acct with
        | exception Spsc.Closed -> failwith "Runtime.Exec: result stream ended early"
        | j ->
          if j.iter <> i then failwith "Runtime.Exec: out-of-order result";
          popped acct b2c.(i mod r) i;
          commit_job acct j;
          ignore (Spsc.try_push free.(i mod r) j)
      done;
      s.Staged.finish ~read:read_committed buf
    in
    let role_bc () =
      let acct_b = accts.(1) and acct_c = accts.(2) and execute = executor () in
      let job = ref None in
      let rec loop i =
        match pop_acct ~us ~slot:0 a2b.(0) acct_b with
        | exception Spsc.Closed ->
          if i <> n then failwith "Runtime.Exec: item stream ended early";
          s.Staged.finish ~read:read_committed buf
        | item ->
          popped acct_b a2b.(0) i;
          let j =
            match !job with
            | Some j -> reuse j i item
            | None ->
              let j = new_job i item in
              job := Some j;
              j
          in
          execute acct_b j;
          commit_job acct_c j;
          loop (i + 1)
      in
      loop 0
    in
    let roles =
      if fused then [| role_a; role_bc |]
      else Array.concat [ [| role_a |]; Array.init r role_b; [| role_c |] ]
    in
    (* Without probing, a role's busy time is its own wall clock
       minus its stalls (the fused B+C role reports it on the B row).
       A failing role poisons every queue so the others unwind. *)
    let run_role k =
      let c = accts.(k).clk in
      let w0 = now () in
      match roles.(k) () with
      | () -> if not probe then c.busy <- now () -. w0 -. c.starved -. c.blocked
      | exception Spsc.Poisoned -> ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)));
        poison_all ()
    in
    let nroles = Array.length roles in
    t0 := now ();
    let tstart = now () in
    Parallel.Pool.parallel_for p ~n:nroles run_role;
    let seconds = now () -. tstart in
    let span_us = us () in
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let role_name k = if k = 0 then "A" else if k <= r then Printf.sprintf "B%d" (k - 1) else "C" in
    let role_rows =
      Array.mapi
        (fun k (a : acct) ->
          {
            rs_role = role_name k;
            rs_items = a.items;
            rs_busy = a.clk.busy;
            rs_starved = a.clk.starved;
            rs_blocked = a.clk.blocked;
          })
        accts
    in
    (match span_registry with
    | None -> ()
    | Some reg ->
      Array.iter
        (fun rs -> Obs.Span.record reg (Printf.sprintf "real/%s/%s" name rs.rs_role) rs.rs_busy)
        role_rows);
    let telemetry =
      if not probe then None
      else
        Some
          (drain ~loop:name ~span_us ~r ~fused ~qcap:(Spsc.capacity a2b.(0)) ~role_name
             (Array.map (fun a -> Option.get a.prb) accts))
    in
    {
      output = Buffer.contents buf;
      stats =
        {
          threads = d;
          replicas = r;
          seconds;
          squashes = !squashes;
          violations = !violations;
          roles = role_rows;
        };
      telemetry;
    }
  in
  match pool with
  | Some p ->
    let d = min threads (Parallel.Pool.size p) in
    if d <= 1 then seq_result staged else go d p
  | None ->
    if threads <= 1 then seq_result staged
    else
      (* One pool slot per role: A + C + the B replicas (fused B+C at
         two domains), so the role count equals [threads]. *)
      Parallel.Pool.with_pool ~domains:threads (fun p -> go threads p)

(* The event view of a probed run, decoded from the rings on demand.
   Core, phase and queue come from the recording role, the queue slot
   from the iteration ([i mod replicas]) and the task id from the
   iteration and phase ([3i], [3i+1], [3i+2]).  A stage record yields
   both ends of its span, so the decoded stream is re-sorted by time;
   the sort is stable over (role, record order), hence deterministic. *)
let events tl =
  let { loop; span_us; probes } = tl.tl_rings in
  let c = Array.length probes - 1 in
  let r = c - 1 in
  let decode (e : Obs.Probe.entry) =
    let k = e.e_domain and time = e.e_time in
    let kind = e.e_kind in
    if kind = k_stage then begin
      let iteration = e.e_b and p = if k = 0 then 0 else if k = c then 2 else 1 in
      let task = (3 * iteration) + p in
      [
        Obs.Event.Task_start
          { time = time - max 0 e.e_a; task; core = k; phase = "ABC".[p]; iteration; work = 0 };
        Obs.Event.Task_finish { time; task; core = k };
      ]
    end
    else if kind = k_push || kind = k_pop then begin
      let i = e.e_a in
      let queue = if kind = k_push then push_queue k else pop_queue ~c k in
      (* In-queue items belong to A's task, out-queue items to B's. *)
      let task = if queue = Obs.Event.In_queue then 3 * i else (3 * i) + 1 in
      let slot = i mod r and occupancy = e.e_b in
      [
        (if kind = k_push then Obs.Event.Queue_push { time; queue; slot; occupancy; task }
         else Obs.Event.Queue_pop { time; queue; slot; occupancy; task });
      ]
    end
    else if kind = k_commit then [ Obs.Event.Iter_commit { time; iteration = e.e_a } ]
    else if kind = k_squash then
      [
        Obs.Event.Task_squash
          { time = time - max 0 e.e_a; task = (3 * e.e_b) + 1; core = k; elapsed = 0 };
      ]
    else []
  in
  let decoded = List.concat_map decode (List.concat_map Obs.Probe.entries (Array.to_list probes)) in
  (Obs.Event.Loop_begin { time = 0; loop }
  :: List.stable_sort (fun a b -> Int.compare (Obs.Event.time a) (Obs.Event.time b)) decoded)
  @ [ Obs.Event.Loop_end { time = span_us; loop; span = span_us } ]

let queue_stat_name qs =
  Printf.sprintf "%s-queue %d" (Obs.Event.queue_name qs.qs_queue) qs.qs_slot

let pp_telemetry stats ppf tl =
  Format.fprintf ppf "telemetry: %d roles, %d queues, %d probe records dropped@,"
    (Array.length tl.tl_roles)
    (List.length tl.tl_queues)
    tl.tl_dropped;
  Array.iteri
    (fun k rp ->
      let rs = stats.roles.(k) in
      Format.fprintf ppf "  role %-3s items=%d busy=%.4fs@," rp.rp_role rs.rs_items
        rs.rs_busy;
      let line label h =
        if Obs.Hist.count h > 0 then
          Format.fprintf ppf "    %-11s %a@," label Obs.Hist.pp h
      in
      line "stage-us" rp.rp_stage;
      line "pop-stall" rp.rp_pop_stall;
      line "push-stall" rp.rp_push_stall;
      line "validate" rp.rp_validate;
      line "squash" rp.rp_squash)
    tl.tl_roles;
  List.iter
    (fun qs ->
      Format.fprintf ppf "  %-12s capacity=%d high-water=%d pushes=%d@,"
        (queue_stat_name qs) qs.qs_capacity qs.qs_high_water qs.qs_pushes)
    tl.tl_queues

(* The probe-dump interchange format [Sim.Calibrate.of_probe_json]
   consumes; latencies are microseconds. *)
let telemetry_to_json ~name stats tl =
  let iterations =
    if Array.length stats.roles = 0 then 0
    else stats.roles.(Array.length stats.roles - 1).rs_items
  in
  let role k rp =
    let rs = stats.roles.(k) in
    Obs.Json.Obj
      [
        ("role", Obs.Json.Str rp.rp_role);
        ("items", Obs.Json.Int rs.rs_items);
        ("busy_s", Obs.Json.Float rs.rs_busy);
        ("stage", Obs.Hist.to_json rp.rp_stage);
        ("pop_stall", Obs.Hist.to_json rp.rp_pop_stall);
        ("push_stall", Obs.Hist.to_json rp.rp_push_stall);
        ("validate", Obs.Hist.to_json rp.rp_validate);
        ("squash", Obs.Hist.to_json rp.rp_squash);
      ]
  in
  let queue qs =
    Obs.Json.Obj
      [
        ("queue", Obs.Json.Str (Obs.Event.queue_name qs.qs_queue));
        ("slot", Obs.Json.Int qs.qs_slot);
        ("capacity", Obs.Json.Int qs.qs_capacity);
        ("high_water", Obs.Json.Int qs.qs_high_water);
        ("pushes", Obs.Json.Int qs.qs_pushes);
      ]
  in
  Obs.Json.Obj
    [
      ("probe_dump", Obs.Json.Int 1);
      ("bench", Obs.Json.Str name);
      ("threads", Obs.Json.Int stats.threads);
      ("replicas", Obs.Json.Int stats.replicas);
      ("iterations", Obs.Json.Int iterations);
      ("seconds", Obs.Json.Float stats.seconds);
      ("squashes", Obs.Json.Int stats.squashes);
      ("dropped", Obs.Json.Int tl.tl_dropped);
      ("roles", Obs.Json.Arr (Array.to_list (Array.mapi role tl.tl_roles)));
      ("queues", Obs.Json.Arr (List.map queue tl.tl_queues));
    ]

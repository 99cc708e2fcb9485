(* Differential properties of the real Domain-parallel runtime.

   Pipelines without shared state: for random lint-clean loops, the runtime reproduces
   the sequential interpreter's output byte for byte at 2 and 4
   domains.

   The loop comes from Check.Gen_ir (a random PDG), is cut by the DSWP
   partitioner with every breaker enabled, and only partitions the plan
   linter accepts with a non-empty parallel stage are exercised — the
   same acceptance path real plans go through.  Synthetic gives the cut
   an executable semantics; Synthetic.reference is an independent
   interpreter of that semantics, so the equality checks the whole
   chain: staged encoding, queues, role scheduling, commit order.

   CHECK_SEED / CHECK_COUNT replay a failure deterministically, as for
   every other property in the suite. *)

let enabled _ = true

let gen =
  Check.Gen.pair (Check.Gen_ir.pdg ~max_nodes:12 ()) (Check.Gen.int_range 1 24)

let lint_clean pdg partition =
  Lint.Diagnostic.errors (Lint.Plan_check.check_enabled ~pdg ~partition ~enabled) = []

let differential (pdg, iterations) =
  let partition = Dswp.Partition.partition pdg ~enabled in
  let b = Dswp.Partition.stage partition Ir.Task.B in
  if not (lint_clean pdg partition) || b.Dswp.Partition.nodes = [] then true
  else begin
    let reference = Runtime.Synthetic.reference pdg partition ~iterations in
    let seq = Runtime.Staged.run_seq (Runtime.Synthetic.staged pdg partition ~iterations) in
    seq = reference
    && List.for_all
         (fun threads ->
           let r =
             Runtime.Exec.run ~threads ~name:"prop"
               (Runtime.Synthetic.staged pdg partition ~iterations)
           in
           r.Runtime.Exec.output = reference)
         [ 2; 4 ]
  end

let print (pdg, iterations) =
  Format.asprintf "iterations=%d@.%a" iterations Ir.Pdg.pp pdg

(* Pipelines sharing a store: a random dense store of 1..16 locations,
   per iteration a random read set, write set and optional chain flag
   (read everything iteration i-1 writes), plus busy work so replicas
   overlap.  The body reads its set again after writing, and those
   reads must still see pre-iteration state.  At 2, 3 and 4 domains the output must equal run_seq byte for byte;
   the fused B+C role of 2 domains executes against committed state, so
   it never squashes; and the counters agree with each other: a squash
   is caused by at least one stale read, and stale reads always squash. *)
let spec_gen =
  let open Check.Gen in
  (* Locations are drawn after the store, so a shrunk store regenerates
     them in range; a store shrunk to nothing is a vacuous case. *)
  let* init = array_size (int_range 1 16) (int_bound 1000) in
  let loc = int_bound (max 0 (Array.length init - 1)) in
  let iteration =
    triple (list_size (int_range 0 4) loc) (list_size (int_range 0 3) loc) bool
  in
  triple (return init) (array_size (int_range 1 40) iteration) (int_bound 3000)

let spec_staged (init, iters, pad) =
  let writes_of i = match iters.(i) with _, w, _ -> w in
  Runtime.Staged.Pipeline
    {
      Runtime.Staged.iterations = Array.length iters;
      init;
      produce = (fun i -> i);
      transform =
        (fun ~read ~write i ->
          let reads, writes, chain = iters.(i) in
          let reads = if chain && i > 0 then reads @ writes_of (i - 1) else reads in
          for k = 1 to pad do
            ignore (Sys.opaque_identity k)
          done;
          let h = List.fold_left (fun h l -> Runtime.Staged.mix h (read l)) i reads in
          List.iter (fun l -> write l (Runtime.Staged.mix h l)) writes;
          List.fold_left (fun h l -> Runtime.Staged.mix h (read l)) h reads);
      consume =
        (fun buf i h -> Buffer.add_string buf (Printf.sprintf "%d %s\n" i (Runtime.Staged.hex h)));
      finish =
        (fun ~read buf ->
          Array.iteri (fun l _ -> Buffer.add_string buf (Runtime.Staged.hex (read l) ^ "\n")) init);
    }

let spec_differential pool ((init, _, _) as case) =
  init = [||]
  ||
  let seq = Runtime.Staged.run_seq (spec_staged case) in
  List.for_all
    (fun threads ->
      let r = Runtime.Exec.run ~pool ~threads ~name:"spec-prop" (spec_staged case) in
      let st = r.Runtime.Exec.stats in
      let squashes = st.Runtime.Exec.squashes and violations = st.Runtime.Exec.violations in
      r.Runtime.Exec.output = seq
      && (threads > 2 || squashes = 0)
      && violations >= squashes
      && (violations = 0) = (squashes = 0))
    [ 2; 3; 4 ]

let print_spec (init, iters, pad) =
  let locs l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "init=[%s] pad=%d\n%s"
    (String.concat ";" (Array.to_list (Array.map string_of_int init)))
    pad
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i (r, w, chain) ->
               Printf.sprintf "%d: reads %s writes %s%s" i (locs r) (locs w)
                 (if chain then " +chain" else ""))
             iters)))

let () =
  Check.Runner.run_prop_exn ~name:"runtime: parallel output = sequential interpreter" ~print
    gen differential;
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      Check.Runner.run_prop_exn ~name:"runtime: spec output = run_seq, squashes accounted"
        ~print:print_spec spec_gen (spec_differential pool))

type partitioner = Dag_scc | Slicing

let partitioner_name = function Dag_scc -> "dag-scc" | Slicing -> "slicing"

type candidate = {
  cand_id : int;
  cand_label : string;
  cand_partitioner : partitioner;
  cand_breakers : Ir.Pdg.breaker list;
  cand_replicate : bool;
  cand_queue_capacity : int;
  cand_seed : bool;
}

type eval = { ev_bound : float; ev_binding : string }

type sim_row = { sim_speedup : float; sim_oracle : (unit, string) result }

type status =
  | Lint_pruned of string list
  | Bound_pruned
  | Budget_pruned
  | Simulated of sim_row

type outcome = {
  out_candidate : candidate;
  out_part : Partition.t;
  out_eval : eval option;
  out_status : status;
}

type counts = {
  generated : int;
  lint_pruned : int;
  bound_pruned : int;
  budget_pruned : int;
  simulated : int;
}

type result = {
  ranked : outcome list;
  counts : counts;
  winner : outcome option;
}

type hooks = {
  lint : (candidate * Partition.t) list -> string list list;
  measure : (candidate * Partition.t) list -> eval list;
  simulate : (candidate * Partition.t) list -> sim_row list;
}

let breaker_short = function
  | Ir.Pdg.Alias_speculation -> "alias"
  | Ir.Pdg.Value_speculation -> "value"
  | Ir.Pdg.Control_speculation -> "ctrl"
  | Ir.Pdg.Silent_store -> "silent"
  | Ir.Pdg.Commutative_annotation g -> "comm:" ^ g
  | Ir.Pdg.Ybranch_annotation -> "ybr"

let distinct_breakers pdg =
  Ir.Pdg.edges pdg
  |> List.filter_map (fun (e : Ir.Pdg.edge) -> e.Ir.Pdg.breaker)
  |> List.sort_uniq compare

(* All 2^n subsets when the breaker alphabet is small; past that, the
   empty set, singletons, all-but-ones and the full set — enough shape
   diversity without an exponential field. *)
let breaker_subsets breakers =
  let n = List.length breakers in
  let arr = Array.of_list breakers in
  if n <= 6 then
    List.init (1 lsl n) (fun mask ->
        List.init n Fun.id
        |> List.filter (fun i -> mask land (1 lsl i) <> 0)
        |> List.map (fun i -> arr.(i)))
  else begin
    let full = breakers in
    let singletons = List.map (fun b -> [ b ]) breakers in
    let all_but_one =
      List.map (fun b -> List.filter (fun b' -> b' <> b) breakers) breakers
    in
    List.sort_uniq compare (([] :: singletons) @ all_but_one @ [ full ])
  end

let subset_label = function
  | [] -> "none"
  | bs -> String.concat "+" (List.map breaker_short bs)

let label ~part ~breakers ~replicate ~queue_capacity =
  Printf.sprintf "%s|%s|%s|q%d" (partitioner_name part) (subset_label breakers)
    (if replicate then "ps" else "3s")
    queue_capacity

(* The field's replication and queue-depth axes: PS-DSWP or plain
   3-stage DSWP, each at a shallow and a deep queue. *)
let replicate_options = [ true; false ]

let queue_capacities = [ 8; 256 ]

let generate pdg ~first_id =
  let subsets = breaker_subsets (distinct_breakers pdg) in
  let next_id = ref first_id in
  List.concat_map
    (fun breakers ->
      List.concat_map
        (fun part ->
          List.concat_map
            (fun replicate ->
              List.map
                (fun qcap ->
                  let cand_id = !next_id in
                  incr next_id;
                  {
                    cand_id;
                    cand_label =
                      label ~part ~breakers ~replicate ~queue_capacity:qcap;
                    cand_partitioner = part;
                    cand_breakers = breakers;
                    cand_replicate = replicate;
                    cand_queue_capacity = qcap;
                    cand_seed = false;
                  })
                queue_capacities)
            replicate_options)
        [ Dag_scc; Slicing ])
    subsets

let arity name expected got =
  if expected <> got then
    invalid_arg
      (Printf.sprintf "Search.run: %s hook returned %d results for %d inputs"
         name got expected)

let run ~pdg ~hooks ?mutate ~candidates ~beam ~budget () =
  if beam < 1 then invalid_arg "Search.run: beam must be >= 1";
  if budget < 0 then invalid_arg "Search.run: budget must be >= 0";
  (* Phase 1: partition everything (both partitioners are in-library). *)
  let parts =
    List.map
      (fun cand ->
        let enabled b = List.exists (fun b' -> b' = b) cand.cand_breakers in
        let part =
          match cand.cand_partitioner with
          | Dag_scc -> Partition.partition pdg ~enabled
          | Slicing -> Slice_partition.partition pdg ~enabled
        in
        let part =
          match mutate with
          | Some f when not cand.cand_seed -> f cand part
          | _ -> part
        in
        (cand, part))
      candidates
  in
  (* Phase 2: lint the whole field in one batch, before any scoring. *)
  let lint_results = hooks.lint parts in
  arity "lint" (List.length parts) (List.length lint_results);
  let tagged = List.map2 (fun (c, p) errs -> (c, p, errs)) parts lint_results in
  let clean, dirty = List.partition (fun (_, _, errs) -> errs = []) tagged in
  let lint_outcomes =
    List.map
      (fun (c, p, errs) ->
        {
          out_candidate = c;
          out_part = p;
          out_eval = None;
          out_status = Lint_pruned errs;
        })
      dirty
  in
  (* Phase 3: sound bounds for the survivors. *)
  let clean_parts = List.map (fun (c, p, _) -> (c, p)) clean in
  let evals = hooks.measure clean_parts in
  arity "measure" (List.length clean_parts) (List.length evals);
  let scored = List.map2 (fun (c, p) ev -> (c, p, ev)) clean_parts evals in
  let ordered =
    List.sort
      (fun (c1, _, e1) (c2, _, e2) ->
        match compare c2.cand_seed c1.cand_seed with
        | 0 -> (
          match compare e2.ev_bound e1.ev_bound with
          | 0 -> compare c1.cand_id c2.cand_id
          | n -> n)
        | n -> n)
      scored
  in
  (* Phase 4: branch-and-bound simulation in waves of [beam].  The
     incumbent only advances between waves, so the set of candidates
     each wave simulates — and hence the final ranking — is independent
     of how the simulate hook shards a wave. *)
  let incumbent = ref neg_infinity in
  let simulated_count = ref 0 in
  let sim_outcomes = ref [] in
  let pruned_outcomes = ref [] in
  let prune (c, p, ev) st =
    pruned_outcomes :=
      { out_candidate = c; out_part = p; out_eval = Some ev; out_status = st }
      :: !pruned_outcomes
  in
  let rec waves pending =
    if pending <> [] then begin
      let rec take acc picked rest =
        if picked = beam then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | ((cand, _, ev) as x) :: tl ->
            if cand.cand_seed then take (x :: acc) (picked + 1) tl
            else if !simulated_count + picked >= budget then begin
              prune x Budget_pruned;
              take acc picked tl
            end
            else if ev.ev_bound <= !incumbent +. 1e-9 then begin
              prune x Bound_pruned;
              take acc picked tl
            end
            else take (x :: acc) (picked + 1) tl
      in
      let wave, rest = take [] 0 pending in
      if wave <> [] then begin
        let rows = hooks.simulate (List.map (fun (c, p, _) -> (c, p)) wave) in
        arity "simulate" (List.length wave) (List.length rows);
        List.iter2
          (fun (c, p, ev) row ->
            incr simulated_count;
            if row.sim_speedup > !incumbent then incumbent := row.sim_speedup;
            sim_outcomes :=
              {
                out_candidate = c;
                out_part = p;
                out_eval = Some ev;
                out_status = Simulated row;
              }
              :: !sim_outcomes)
          wave rows;
        waves rest
      end
    end
  in
  waves ordered;
  let simulated = List.rev !sim_outcomes in
  let speedup_of o =
    match o.out_status with Simulated r -> r.sim_speedup | _ -> neg_infinity
  in
  let bound_of o =
    match o.out_eval with Some e -> e.ev_bound | None -> neg_infinity
  in
  let ranked_sim =
    List.sort
      (fun a b ->
        match compare (speedup_of b) (speedup_of a) with
        | 0 -> (
          match compare (bound_of b) (bound_of a) with
          | 0 -> compare a.out_candidate.cand_id b.out_candidate.cand_id
          | n -> n)
        | n -> n)
      simulated
  in
  let pruned =
    List.sort
      (fun a b -> compare a.out_candidate.cand_id b.out_candidate.cand_id)
      (lint_outcomes @ !pruned_outcomes)
  in
  let count st =
    List.length (List.filter (fun o -> o.out_status = st) pruned)
  in
  let counts =
    {
      generated = List.length candidates;
      lint_pruned = List.length lint_outcomes;
      bound_pruned = count Bound_pruned;
      budget_pruned = count Budget_pruned;
      simulated = List.length simulated;
    }
  in
  {
    ranked = ranked_sim @ pruned;
    counts;
    winner = (match ranked_sim with [] -> None | w :: _ -> Some w);
  }

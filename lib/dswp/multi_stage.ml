type stage = { ms_nodes : int list; ms_weight : float; ms_parallel : bool }

(* Weight and parallel-eligibility of each SCC, in topological order. *)
let scc_chain pdg ~enabled =
  let surviving (e : Ir.Pdg.edge) =
    match e.Ir.Pdg.breaker with None -> true | Some b -> not (enabled b)
  in
  let c = Scc_util.condense pdg ~surviving in
  List.init (Scc_util.component_count c) (fun ci ->
      (c.Scc_util.comps.(ci), c.Scc_util.weight.(ci), c.Scc_util.eligible.(ci)))

(* Minimize the maximum chunk weight over contiguous partitions of the
   chain into at most k chunks: binary search on the bottleneck plus a
   greedy feasibility check. *)
let split_chain chain k =
  let weights = List.map (fun (_, w, _) -> w) chain in
  let total = List.fold_left ( +. ) 0.0 weights in
  let heaviest = List.fold_left max 0.0 weights in
  let chunks_needed limit =
    let rec go count acc = function
      | [] -> count
      | w :: rest ->
        if acc +. w <= limit || acc = 0.0 then go count (acc +. w) rest
        else go (count + 1) w rest
    in
    match weights with [] -> 0 | _ -> go 1 0.0 weights
  in
  let rec search lo hi iters =
    if iters = 0 then hi
    else
      let mid = (lo +. hi) /. 2.0 in
      if chunks_needed mid <= k then search lo mid (iters - 1) else search mid hi (iters - 1)
  in
  let limit = search heaviest total 40 in
  (* Materialize the chunks greedily at the chosen limit. *)
  let rec build current acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | ((_, w, _) as scc) :: rest ->
      let cur_weight = List.fold_left (fun a (_, x, _) -> a +. x) 0.0 current in
      if current <> [] && cur_weight +. w > limit +. 1e-9 then
        build [ scc ] (List.rev current :: acc) rest
      else build (scc :: current) acc rest
  in
  build [] [] chain

let partition pdg ~stages ~enabled =
  if stages < 1 then invalid_arg "Multi_stage.partition: stages must be >= 1";
  let chain = scc_chain pdg ~enabled in
  let chunks = split_chain chain stages in
  List.map
    (fun chunk ->
      let nodes = List.concat_map (fun (ns, _, _) -> ns) chunk |> List.sort compare in
      let weight = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 chunk in
      let parallel = List.for_all (fun (_, _, p) -> p) chunk in
      { ms_nodes = nodes; ms_weight = weight; ms_parallel = parallel })
    chunks

let bottleneck stages =
  List.fold_left (fun acc s -> max acc s.ms_weight) 0.0 stages

let throughput_bound stages ~threads =
  if threads < 1 then invalid_arg "Multi_stage.throughput_bound: threads must be >= 1";
  let total = List.fold_left (fun acc s -> acc +. s.ms_weight) 0.0 stages in
  if total <= 0.0 || stages = [] then 1.0
  else if threads = 1 then 1.0
  else begin
    let seq = List.filter (fun s -> not s.ms_parallel) stages in
    let par = List.filter (fun s -> s.ms_parallel) stages in
    let spare = max 0 (threads - List.length stages) in
    let par_weight = List.fold_left (fun acc s -> acc +. s.ms_weight) 0.0 par in
    let effective s =
      if s.ms_parallel && par_weight > 0.0 then
        let extra =
          int_of_float (floor (float_of_int spare *. s.ms_weight /. par_weight))
        in
        s.ms_weight /. float_of_int (1 + extra)
      else s.ms_weight
    in
    let bottleneck =
      List.fold_left (fun acc s -> max acc (effective s)) 0.0 (seq @ par)
    in
    if bottleneck <= 0.0 then 1.0 else min (float_of_int threads) (total /. bottleneck)
  end

let pp pdg ppf stages =
  List.iteri
    (fun i s ->
      Format.fprintf ppf "stage %d%s: weight %.3f, nodes %s@." i
        (if s.ms_parallel then " (parallel)" else "")
        s.ms_weight
        (String.concat ","
           (List.map (fun n -> (Ir.Pdg.node pdg n).Ir.Pdg.label) s.ms_nodes)))
    stages

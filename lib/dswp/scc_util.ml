type t = {
  comps : int list array;
  comp_of : int array;
  adj : int list array;
  radj : int list array;
  weight : float array;
  eligible : bool array;
  dedup_probes : int;
}

let component_count t = Array.length t.comps

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let condense pdg ~surviving =
  let comps = Array.of_list (Ir.Pdg.sccs pdg ~consider:surviving ()) in
  let k = Array.length comps in
  let n = Ir.Pdg.node_count pdg in
  let comp_of = Array.make n (-1) in
  Array.iteri (fun ci nodes -> List.iter (fun v -> comp_of.(v) <- ci) nodes) comps;
  let weight = Array.make k 0.0 in
  let all_replicable = Array.make k true in
  List.iter
    (fun (nd : Ir.Pdg.node) ->
      let ci = comp_of.(nd.Ir.Pdg.id) in
      weight.(ci) <- weight.(ci) +. nd.Ir.Pdg.weight;
      if not nd.Ir.Pdg.replicable then all_replicable.(ci) <- false)
    (Ir.Pdg.nodes pdg);
  let adj = Array.make k [] in
  let radj = Array.make k [] in
  let internal_carried = Array.make k false in
  (* Dedup cross-component edges through a chained hash set of
     [src * k + dst] keys, sized to the edge count up front: about one
     bucket probe per edge, instead of the O(deg) adjacency-list scan
     that went quadratic on dense PDGs.  Every bucket lookup and every
     key compared along a chain counts in [probes], a deterministic
     measure of the dedup's cost. *)
  let edges = Ir.Pdg.edges pdg in
  let nb = pow2 (2 * List.length edges) 1 in
  let buckets = Array.make nb [] in
  let probes = ref 0 in
  let rec chain_mem key = function
    | [] -> false
    | x :: rest ->
      incr probes;
      x = key || chain_mem key rest
  in
  List.iter
    (fun (e : Ir.Pdg.edge) ->
      if surviving e then begin
        let cs = comp_of.(e.Ir.Pdg.src) and cd = comp_of.(e.Ir.Pdg.dst) in
        if cs = cd then begin
          if e.Ir.Pdg.loop_carried then internal_carried.(cs) <- true
        end
        else begin
          let key = (cs * k) + cd in
          let b = Hashtbl.hash key land (nb - 1) in
          incr probes;
          if not (chain_mem key buckets.(b)) then begin
            buckets.(b) <- key :: buckets.(b);
            adj.(cs) <- cd :: adj.(cs);
            radj.(cd) <- cs :: radj.(cd)
          end
        end
      end)
    edges;
  let eligible =
    Array.init k (fun ci -> (not internal_carried.(ci)) && all_replicable.(ci))
  in
  { comps; comp_of; adj; radj; weight; eligible; dedup_probes = !probes }

(* Depth-first with an explicit worklist: the recursive version
   overflowed the OCaml stack on ~100k-deep condensation chains. *)
let reachable adj from =
  let k = Array.length adj in
  let seen = Array.make k false in
  let stack = ref adj.(from) in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter (fun w -> if not seen.(w) then stack := w :: !stack) adj.(v)
      end
  done;
  seen

let reach_cache adj =
  let cache : (int, bool array) Hashtbl.t = Hashtbl.create 16 in
  fun from ->
    match Hashtbl.find_opt cache from with
    | Some seen -> seen
    | None ->
      let seen = reachable adj from in
      Hashtbl.add cache from seen;
      seen

let multi_reachable adj ~from =
  let k = Array.length adj in
  let seen = Array.make k false in
  let stack = ref (List.concat_map (fun v -> adj.(v)) from) in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter (fun w -> if not seen.(w) then stack := w :: !stack) adj.(v)
      end
  done;
  seen

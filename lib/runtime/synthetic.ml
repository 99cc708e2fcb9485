open Staged

let phase_rank = function Ir.Task.A -> 0 | Ir.Task.B -> 1 | Ir.Task.C -> 2

type shape = {
  nc : int;
  phase : int array;  (* phase_rank per node *)
  ins : (int * bool) array array;  (* per node: (src, loop_carried), src ascending *)
  salt : int array;
}

let shape_of pdg part =
  let nc = Ir.Pdg.node_count pdg in
  let phase =
    Array.init nc (fun n -> phase_rank (Dswp.Partition.phase_of_node part n))
  in
  let ins = Array.make nc [] in
  List.iter
    (fun (e : Ir.Pdg.edge) -> ins.(e.dst) <- (e.src, e.loop_carried) :: ins.(e.dst))
    (Ir.Pdg.edges pdg);
  let ins =
    Array.map
      (fun l ->
        Array.of_list
          (List.sort (fun (a, ac) (b, bc) -> compare (a, ac) (b, bc)) l))
      ins
  in
  let salt = Array.init nc (fun n -> mix (mix 0 0x5eed) n) in
  { nc; phase; ins; salt }

(* Availability of a dependence value, identical in [staged] and
   [reference]: intra-iteration values flow only forward (or within a
   stage, where ascending node ids order the computation); carried
   values flow forward or within a sequential stage — replicated B
   keeps no cross-iteration state. *)
let avail_intra sh m n = sh.phase.(m) <= sh.phase.(n)

let avail_carried sh m n =
  sh.phase.(m) < sh.phase.(n) || (sh.phase.(m) = sh.phase.(n) && sh.phase.(m) <> 1)

(* Value of node [n] at iteration [i], reading intra-iteration inputs
   from [cur] and previous-iteration inputs from [prev]; unavailable
   inputs contribute 0. *)
let node_value sh ~cur ~prev i n =
  Array.fold_left
    (fun h (m, carried) ->
      let x =
        if carried then if avail_carried sh m n then prev m else 0
        else if avail_intra sh m n then cur m
        else 0
      in
      mix h x)
    (mix sh.salt.(n) i)
    sh.ins.(n)

let nodes_in sh rank =
  let l = ref [] in
  for n = sh.nc - 1 downto 0 do
    if sh.phase.(n) = rank then l := n :: !l
  done;
  Array.of_list !l

let digest_line total buf i vals =
  let d = Array.fold_left mix 0 vals in
  total := mix (mix !total i) d;
  Buffer.add_string buf (Printf.sprintf "%d %s\n" i (hex d))

let seal total buf = Buffer.add_string buf ("total " ^ hex !total ^ "\n")

let staged pdg part ~iterations =
  let sh = shape_of pdg part in
  let a_nodes = nodes_in sh 0 and b_nodes = nodes_in sh 1 and c_nodes = nodes_in sh 2 in
  let fill vals prev nodes i =
    Array.iter
      (fun n ->
        vals.(n) <- node_value sh ~cur:(Array.get vals) ~prev:(Array.get prev) i n)
      nodes
  in
  let a_prev = ref (Array.make sh.nc 0) in
  let c_prev = ref (Array.make sh.nc 0) in
  let total = ref 0 in
  Pipeline
    {
      iterations;
      init = [||];
      produce =
        (fun i ->
          let cur = Array.make sh.nc 0 in
          let prev = !a_prev in
          fill cur prev a_nodes i;
          a_prev := cur;
          (* [cur]/[prev] are never mutated after this point — A swaps
             in fresh arrays and B works on a copy — so shipping the
             references across the queue is safe. *)
          (i, cur, prev));
      transform =
        (fun ~read:_ ~write:_ (i, cur, prev) ->
          let vals = Array.copy cur in
          fill vals prev b_nodes i;
          (i, vals));
      consume =
        (fun buf i (j, vals) ->
          assert (i = j);
          fill vals !c_prev c_nodes i;
          c_prev := vals;
          digest_line total buf i vals);
      finish = (fun ~read:_ buf -> seal total buf);
    }

let reference pdg part ~iterations =
  let sh = shape_of pdg part in
  let buf = Buffer.create 1024 in
  let total = ref 0 in
  let prev = ref (Array.make sh.nc 0) in
  for i = 0 to iterations - 1 do
    let cur = Array.make sh.nc 0 in
    for n = 0 to sh.nc - 1 do
      cur.(n) <- node_value sh ~cur:(Array.get cur) ~prev:(Array.get !prev) i n
    done;
    prev := cur;
    digest_line total buf i cur
  done;
  seal total buf;
  Buffer.contents buf

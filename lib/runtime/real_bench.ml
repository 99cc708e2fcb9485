module Study = Benchmarks.Study
module Rng = Simcore.Rng
open Staged

let iters = Study.iterations_for

(* Every bench without shared state funnels into the same observable
   shape: stage B reduces its real computation to an integer digest,
   stage C chains the digests in iteration order and prints one line
   each, and [finish] seals the chain.  Any divergence anywhere — a lost
   iteration, a reordering, a wrong byte out of a kernel — changes the
   output. *)
let lines_pipeline ~iterations ~produce ~transform =
  let total = ref 0 in
  Pipeline
    {
      iterations;
      init = [||];
      produce;
      transform = (fun ~read:_ ~write:_ item -> transform item);
      consume =
        (fun buf i d ->
          total := mix (mix !total i) d;
          Buffer.add_string buf (Printf.sprintf "%d %s\n" i (hex d)));
      finish = (fun ~read:_ buf -> Buffer.add_string buf ("total " ^ hex !total ^ "\n"));
    }

(* 164.gzip — deflate over variable-length text blocks.  A carries the
   input cursor and the RNG choosing block sizes and compression levels
   (gzip's carried dictionary state stands in as the cursor); B
   compresses and round-trips each block independently. *)
let gzip scale =
  let n = iters scale ~small:12 ~medium:48 ~large:160 in
  let max_block =
    match scale with Study.Small -> 512 | Study.Medium -> 2048 | Study.Large -> 4096
  in
  let rng = Rng.create 0x164 in
  let text = Workloads.Textgen.repetitive_text rng ~bytes:(n * max_block) ~redundancy:0.4 in
  let pos = ref 0 in
  lines_pipeline ~iterations:n
    ~produce:(fun i ->
      let len = (max_block / 2) + Rng.int rng (max_block / 2) in
      let len = min len (String.length text - !pos) in
      let block = String.sub text !pos len in
      pos := !pos + len;
      let level = if i mod 10 < 3 then Workloads.Lz77.Fast else Workloads.Lz77.Best in
      (level, block))
    ~transform:(fun (level, block) ->
      let r = Workloads.Lz77.compress ~level block in
      let d =
        List.fold_left
          (fun h tok ->
            match tok with
            | Workloads.Lz77.Literal c -> mix h (Char.code c)
            | Workloads.Lz77.Match { distance; length } -> mix h ((distance * 512) + length))
          0 r.Workloads.Lz77.tokens
      in
      let round = if Workloads.Lz77.decompress r.Workloads.Lz77.tokens = block then 1 else 0 in
      mix (mix d r.Workloads.Lz77.compressed_bits) round)

(* 256.bzip2 — per-block BWT + MTF + RLE + Huffman, with an inverse-BWT
   round-trip check folded into the digest. *)
let bzip2 scale =
  let n = iters scale ~small:10 ~medium:32 ~large:96 in
  let block =
    match scale with Study.Small -> 192 | Study.Medium -> 448 | Study.Large -> 768
  in
  let rng = Rng.create 0x256 in
  let text = Workloads.Textgen.repetitive_text rng ~bytes:(n * block) ~redundancy:0.6 in
  lines_pipeline ~iterations:n
    ~produce:(fun i -> String.sub text (i * block) block)
    ~transform:(fun s ->
      let t = Workloads.Bwt.transform s in
      let mtf = Workloads.Bwt.move_to_front t.Workloads.Bwt.data in
      let rle = Workloads.Bwt.run_length mtf in
      let freq = Hashtbl.create 64 in
      List.iter
        (fun sym ->
          Hashtbl.replace freq sym (1 + Option.value ~default:0 (Hashtbl.find_opt freq sym)))
        mtf;
      let freqs =
        Hashtbl.fold (fun sym c acc -> (sym, c) :: acc) freq []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let bits =
        match Workloads.Huffman.build freqs with
        | Some tree -> Workloads.Huffman.encoded_bits (Workloads.Huffman.code_lengths tree) mtf
        | None -> 0
      in
      let round = if Workloads.Bwt.inverse t = s then 1 else 0 in
      let d =
        List.fold_left (fun h (sym, len) -> mix h ((sym * 1024) + len)) t.Workloads.Bwt.primary rle
      in
      mix (mix d bits) round)

(* 197.parser — chart-parse a sentence stream whose mode is toggled by
   embedded commands: every 16th iteration flips A's carried scramble
   flag (the paper's parser keeps exactly this kind of loop-carried
   command state). *)
let parser scale =
  let n = iters scale ~small:24 ~medium:96 ~large:240 in
  let rng = Rng.create 0x197 in
  let scrambled = ref false in
  lines_pipeline ~iterations:n
    ~produce:(fun i ->
      if i mod 16 = 15 then scrambled := not !scrambled;
      let words = Workloads.Chart_parser.sentence_of_length rng (5 + Rng.int rng 6) in
      if !scrambled then Workloads.Chart_parser.scramble rng words else words)
    ~transform:(fun words ->
      let r = Workloads.Chart_parser.parse Workloads.Chart_parser.english_like words in
      let d = List.fold_left mix_string 0 words in
      let d = mix d (if r.Workloads.Chart_parser.grammatical then 1 else 0) in
      mix (mix d r.Workloads.Chart_parser.chart_entries) r.Workloads.Chart_parser.work)

(* 186.crafty — independent game-tree searches from seeded root
   positions; cacheless so replicas are deterministic. *)
let crafty scale =
  let n = iters scale ~small:8 ~medium:20 ~large:48 in
  let depth = match scale with Study.Small -> 4 | Study.Medium -> 5 | Study.Large -> 6 in
  lines_pipeline ~iterations:n
    ~produce:(fun i -> Workloads.Alphabeta.root ~seed:(0x186 + (i * 7)))
    ~transform:(fun pos ->
      let best, score, st = Workloads.Alphabeta.best_root_move ~depth pos in
      mix (mix (mix (Int64.to_int best) score) st.Workloads.Alphabeta.nodes) depth)

(* 176.gcc — front end once in A's closure, then optimize + emit one
   function per iteration with per-function label numbering
   ([label_start:0]), the paper's change that breaks gcc's carried
   label counter. *)
let gcc scale =
  let n = iters scale ~small:10 ~medium:32 ~large:80 in
  let source = Workloads.Minicc.gen_source ~seed:0x176 ~functions:n in
  let funits =
    match Workloads.Minicc.front_end source with
    | Ok (fs, _) -> Array.of_list fs
    | Error e -> failwith ("Real_bench.gcc: front end failed: " ^ e)
  in
  let n = min n (Array.length funits) in
  lines_pipeline ~iterations:n
    ~produce:(fun i -> funits.(i))
    ~transform:(fun fu ->
      let fu', rep = Workloads.Minicc.optimize fu in
      let asm, x, y = Workloads.Minicc.emit fu' ~label_start:0 in
      let ev = Option.value ~default:(-1) (Workloads.Minicc.eval_function fu') in
      mix_string (mix (mix (mix ev rep.Workloads.Minicc.total_work) x) y) asm)

(* 181.mcf — solve a fresh small min-cost-flow network per iteration,
   folding feasibility/optimality witnesses into the digest. *)
let mcf scale =
  let n = iters scale ~small:8 ~medium:24 ~large:64 in
  let sources, sinks, transit =
    match scale with
    | Study.Small -> (2, 2, 5)
    | Study.Medium -> (3, 3, 8)
    | Study.Large -> (4, 4, 12)
  in
  lines_pipeline ~iterations:n
    ~produce:(fun i -> Workloads.Netflow.generate ~seed:(0x181 + i) ~sources ~sinks ~transit)
    ~transform:(fun net ->
      let sol = Workloads.Netflow.solve net in
      let ok =
        (if Workloads.Netflow.is_feasible net sol then 1 else 0)
        + if Workloads.Netflow.is_optimal net sol then 2 else 0
      in
      let d =
        Array.fold_left mix
          (mix sol.Workloads.Netflow.total_cost sol.Workloads.Netflow.total_flow)
          sol.Workloads.Netflow.flows
      in
      mix (mix d (List.length sol.Workloads.Netflow.augmentations)) ok)

(* Shared interpreter substrate for 253.perlbmk / 254.gap: generate and
   run one program ("request") per iteration on a fresh VM state. *)
let interp ~salt ~stmts ~globals ~chain ~alloc_rate ~heap_limit ~iterations =
  lines_pipeline ~iterations
    ~produce:(fun i -> salt + (i * 13))
    ~transform:(fun seed ->
      let prog = Workloads.Stackvm.gen_program ~seed ~stmts ~globals ~chain ~alloc_rate in
      let st = Workloads.Stackvm.create_state ~globals ~heap_limit in
      let d =
        List.fold_left
          (fun h stmt ->
            let r = Workloads.Stackvm.exec_stmt st stmt in
            let h = mix (mix h r.Workloads.Stackvm.work) r.Workloads.Stackvm.stack_depth_end in
            match r.Workloads.Stackvm.gc with
            | None -> h
            | Some g ->
              mix
                (List.fold_left mix h g.Workloads.Stackvm.moved)
                g.Workloads.Stackvm.collected)
          0 prog
      in
      let d = List.fold_left mix d (Workloads.Stackvm.output st) in
      mix d (Workloads.Stackvm.live_objects st))

let perlbmk scale =
  interp ~salt:0x253 ~globals:8 ~chain:0.3 ~alloc_rate:0.2 ~heap_limit:64
    ~stmts:(iters scale ~small:40 ~medium:120 ~large:240)
    ~iterations:(iters scale ~small:12 ~medium:40 ~large:96)

(* 254.gap — allocation-heavy with a tight heap, so requests spend much
   of their time in the collector. *)
let gap scale =
  interp ~salt:0x254 ~globals:6 ~chain:0.25 ~alloc_rate:0.5 ~heap_limit:24
    ~stmts:(iters scale ~small:40 ~medium:120 ~large:240)
    ~iterations:(iters scale ~small:12 ~medium:40 ~large:96)

(* 255.vortex — one fresh B-tree transaction batch per iteration:
   inserts, lookups, deletes, invariant check, key-set digest. *)
let vortex scale =
  let n = iters scale ~small:10 ~medium:28 ~large:80 in
  let batch = iters scale ~small:60 ~medium:160 ~large:320 in
  lines_pipeline ~iterations:n
    ~produce:(fun i -> i)
    ~transform:(fun i ->
      let rng = Rng.create (0x255 + i) in
      let t = Workloads.Btree.create ~degree:4 in
      let keys = Array.init batch (fun _ -> Rng.int rng 10_000) in
      let d = ref 0 in
      Array.iteri
        (fun j key ->
          let r = Workloads.Btree.insert t ~key ~value:((key * 2) + j) in
          d :=
            mix !d
              (r.Workloads.Btree.nodes_visited
              + if r.Workloads.Btree.restructured then 1024 else 0))
        keys;
      Array.iteri
        (fun j key ->
          if j mod 3 = 0 then begin
            let v, r = Workloads.Btree.lookup t ~key in
            d := mix (mix !d (Option.value ~default:(-1) v)) r.Workloads.Btree.work
          end)
        keys;
      Array.iteri
        (fun j key ->
          if j mod 4 = 1 then d := mix !d (Workloads.Btree.delete t ~key).Workloads.Btree.work)
        keys;
      let ok = match Workloads.Btree.check_invariants t with Ok () -> 1 | Error _ -> 0 in
      mix (List.fold_left mix !d (Workloads.Btree.keys t)) ok)

(* Speculative annealing placement, the substrate for 175.vpr and
   300.twolf.  Blocks live on a [grid]x[grid] board; static nets connect
   2..[net_span] blocks; the cost of a net is its half-perimeter.  Each
   iteration proposes [cands] moves, evaluates them against the shared
   placement (read through the speculation protocol), and commits the
   best move when its delta clears a decreasing threshold.  Two
   in-flight iterations touching overlapping nets conflict: the later
   one's reads go stale when the earlier commits, and the runtime must
   squash and re-execute it to keep the output sequential. *)
let annealing ~salt ~blocks:nb ~grid:w ~nets:nn ~net_span ~cands ~iterations:n =
  let rng0 = Rng.create salt in
  let nets =
    Array.init nn (fun _ ->
        let sz = 2 + Rng.int rng0 (net_span - 1) in
        Array.init sz (fun _ -> Rng.int rng0 nb))
  in
  let nets_of_block = Array.make nb [] in
  Array.iteri
    (fun ni net ->
      Array.iter
        (fun b ->
          if not (List.mem ni nets_of_block.(b)) then
            nets_of_block.(b) <- ni :: nets_of_block.(b))
        net)
    nets;
  let encode x y = (x * w) + y in
  let init = Array.init nb (fun b -> encode (b mod w) (b / w mod w)) in
  let net_cost read ~moved ~at ni =
    let minx = ref max_int and maxx = ref min_int in
    let miny = ref max_int and maxy = ref min_int in
    Array.iter
      (fun b ->
        let p = if b = moved then at else read b in
        let x = p / w and y = p mod w in
        if x < !minx then minx := x;
        if x > !maxx then maxx := x;
        if y < !miny then miny := y;
        if y > !maxy then maxy := y)
      nets.(ni);
    !maxx - !minx + (!maxy - !miny)
  in
  let rng = Rng.create (salt * 3) in
  let total = ref 0 in
  Pipeline
    {
      iterations = n;
      init;
      produce =
        (fun i ->
          let threshold = max 0 (((n - i) * 2 / n) - 1) in
          ( threshold,
            List.init cands (fun _ -> (Rng.int rng nb, encode (Rng.int rng w) (Rng.int rng w)))
          ));
      transform =
        (fun ~read ~write (threshold, cands) ->
          let delta_of (blk, dst) =
            let cur = read blk in
            List.fold_left
              (fun acc ni ->
                acc
                + net_cost read ~moved:blk ~at:dst ni
                - net_cost read ~moved:blk ~at:cur ni)
              0 nets_of_block.(blk)
          in
          let best =
            List.fold_left
              (fun acc cand ->
                let d = delta_of cand in
                match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (cand, d))
              None cands
          in
          match best with
          | Some ((blk, dst), d) when d <= threshold ->
            write blk dst;
            mix (mix blk dst) d
          | Some ((blk, _), d) -> mix (mix blk (-1)) d
          | None -> 0);
      consume =
        (fun buf i d ->
          total := mix (mix !total i) d;
          Buffer.add_string buf (Printf.sprintf "%d %s\n" i (hex d)));
      finish =
        (fun ~read buf ->
          let cost = ref 0 in
          for ni = 0 to nn - 1 do
            cost := !cost + net_cost read ~moved:(-1) ~at:0 ni
          done;
          Buffer.add_string buf (Printf.sprintf "cost %d\n" !cost);
          Buffer.add_string buf ("total " ^ hex (mix !total !cost) ^ "\n"));
    }

let vpr scale =
  annealing ~salt:0x175
    ~blocks:(iters scale ~small:24 ~medium:48 ~large:96)
    ~grid:8
    ~nets:(iters scale ~small:20 ~medium:48 ~large:96)
    ~net_span:4 ~cands:6
    ~iterations:(iters scale ~small:40 ~medium:120 ~large:320)

(* 300.twolf — denser netlist on a tighter grid: more overlapping nets
   per block, hence a higher mis-speculation rate than vpr. *)
let twolf scale =
  annealing ~salt:0x300
    ~blocks:(iters scale ~small:16 ~medium:32 ~large:64)
    ~grid:5
    ~nets:(iters scale ~small:28 ~medium:64 ~large:128)
    ~net_span:5 ~cands:8
    ~iterations:(iters scale ~small:40 ~medium:120 ~large:320)

let builders =
  [
    ("164.gzip", gzip);
    ("175.vpr", vpr);
    ("176.gcc", gcc);
    ("181.mcf", mcf);
    ("186.crafty", crafty);
    ("197.parser", parser);
    ("253.perlbmk", perlbmk);
    ("254.gap", gap);
    ("255.vortex", vortex);
    ("256.bzip2", bzip2);
    ("300.twolf", twolf);
  ]

let names = List.map fst builders

let small_three = [ "164.gzip"; "181.mcf"; "253.perlbmk" ]

let staged ?(scale = Study.Small) name =
  let short s = match String.index_opt s '.' with Some i -> String.sub s (i + 1) (String.length s - i - 1) | None -> s in
  match List.find_opt (fun (n, _) -> n = name || short n = name) builders with
  | Some (_, build) -> build scale
  | None -> raise Not_found

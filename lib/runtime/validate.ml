module Study = Benchmarks.Study
module H = Obs_analysis.History

type outcome = {
  ok : bool;
  benches : int;
  points : H.real_point list;
}

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    if status = Unix.WEXITED 0 && line <> "" then line else "unknown"

(* Everything that changes what the measured numbers mean: the scale,
   the bench list, and the thread range.  Deliberately distinct from
   the bench harness digest — real and simulated entries are never
   comparable. *)
let config_digest ~scale ~benches ~max_threads =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          ("real" :: Study.scale_to_string scale :: string_of_int max_threads :: benches)))

let thread_list max_threads = List.init (max 1 max_threads) (fun i -> i + 1)

(* Simulator-predicted speedup per thread count for one study. *)
let predictions (study : Study.t) ~scale ~threads =
  let profile = study.Study.run ~scale in
  let built = Core.Framework.build ~plan:study.Study.plan profile in
  let series =
    Sim.Speedup.sweep ~threads ~label:study.Study.spec_name built.Core.Framework.input
  in
  fun t ->
    match Sim.Speedup.at_threads series t with
    | Some p -> p.Sim.Speedup.speedup
    | None -> 1.

let flip_first_byte s =
  if s = "" then "\x01"
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Bytes.to_string b
  end

let run ?benches ?(max_threads = 4) ?(scale = Study.Small) ?history ?trace
    ?(corrupt = false) () =
  let benches = match benches with Some bs -> bs | None -> Real_bench.names in
  let threads = thread_list max_threads in
  let span_registry = Obs.Span.create () in
  let t_start = Unix.gettimeofday () in
  let all_ok = ref true in
  let points = ref [] in
  let corrupt_pending = ref corrupt in
  Printf.printf "validate-real: %d benches, threads 1..%d, scale %s%s\n%!"
    (List.length benches) max_threads (Study.scale_to_string scale)
    (if corrupt then " [self-test: corrupting first parallel output]" else "");
  let find name =
    match Benchmarks.Registry.find name with
    | Some s -> s
    | None -> invalid_arg ("validate-real: unknown benchmark " ^ name)
  in
  List.iter
    (fun name ->
      let study = find name in
      let name = study.Study.spec_name in
      let seq = Exec.run ~threads:1 ~name ~span_registry (Real_bench.staged ~scale name) in
      let predicted = predictions study ~scale ~threads in
      Printf.printf "\n== %s ==  sequential %.3fs\n" name seq.Exec.stats.Exec.seconds;
      Printf.printf "  %7s  %9s  %9s  %9s  %7s  %s\n" "threads" "sim-pred" "measured"
        "wall" "squash" "output";
      List.iter
        (fun t ->
          let r =
            if t = 1 then seq
            else Exec.run ~threads:t ~name ~span_registry (Real_bench.staged ~scale name)
          in
          let out =
            if t > 1 && !corrupt_pending then begin
              corrupt_pending := false;
              flip_first_byte r.Exec.output
            end
            else r.Exec.output
          in
          let ok = out = seq.Exec.output in
          if not ok then all_ok := false;
          let speedup =
            if r.Exec.stats.Exec.seconds > 0. then
              seq.Exec.stats.Exec.seconds /. r.Exec.stats.Exec.seconds
            else 1.
          in
          Printf.printf "  %7d  %8.2fx  %8.2fx  %8.3fs  %7d  %s\n%!" t (predicted t)
            speedup r.Exec.stats.Exec.seconds r.Exec.stats.Exec.squashes
            (if ok then "ok" else "MISMATCH");
          points :=
            {
              H.rp_study = name;
              rp_threads = t;
              rp_seconds = r.Exec.stats.Exec.seconds;
              rp_speedup = speedup;
              rp_sim_speedup = predicted t;
              rp_ok = ok;
              rp_squashes = r.Exec.stats.Exec.squashes;
            }
            :: !points)
        threads)
    benches;
  let total_seconds = Unix.gettimeofday () -. t_start in
  let points = List.rev !points in
  (match trace with
  | None -> ()
  | Some file ->
    (* Probed re-runs for the event streams; kept out of the measured
       passes so tracing cannot perturb the numbers above.
       One trace per parallel sweep point: "out.json" -> "out-tN.json"
       (the sequential point has no roles, hence no events). *)
    let name = (find (List.hd benches)).Study.spec_name in
    let point_file t =
      match Filename.chop_suffix_opt ~suffix:".json" file with
      | Some base -> Printf.sprintf "%s-t%d.json" base t
      | None -> Printf.sprintf "%s-t%d" file t
    in
    Printf.printf "\n";
    List.iter
      (fun t ->
        if t > 1 then begin
          let r = Exec.run ~threads:t ~name ~probe:true (Real_bench.staged ~scale name) in
          let events =
            match r.Exec.telemetry with Some tl -> Exec.events tl | None -> []
          in
          let pf = point_file t in
          Obs.Trace_event.write_file
            ~process_name:(Printf.sprintf "validate-real %s t%d" name t)
            pf events;
          Printf.printf "trace: %d real events written to %s\n" (List.length events) pf
        end)
      threads);
  (match history with
  | None -> ()
  | Some path ->
    H.append path
      {
        H.rev = git_rev ();
        config = config_digest ~scale ~benches ~max_threads;
        scale = Study.scale_to_string scale;
        jobs = max_threads;
        total_seconds;
        gc = None;
        studies = [];
        real = points;
      };
    Printf.printf "\nhistory: appended %d real points to %s\n" (List.length points) path);
  let n_ok =
    List.length (List.filter (fun (p : H.real_point) -> p.H.rp_ok) points)
  in
  Printf.printf
    "\nvalidate-real: %d/%d points byte-identical across %d benches in %.1fs — %s\n%!" n_ok
    (List.length points) (List.length benches) total_seconds
    (if !all_ok then "OK" else "FAILED");
  { ok = !all_ok; benches = List.length benches; points }

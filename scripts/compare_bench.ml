(* Perf gates over a bench history file (JSONL, one entry per bench run;
   see Obs_analysis.History).  Two modes, both used by scripts/check.sh:

   Default — diff the newest entry against the newest entry from a
   different revision (preferring one with the same config digest) and
   exit non-zero when a study's simulated span grew or speedup shrank
   beyond the tolerance.  Same-revision entries (check.sh's jobs=1 /
   jobs=N bench pair) are equal by construction, so they are never the
   baseline.  Simulated numbers are deterministic, so a small tolerance
   catches real regressions without flaking; wall-clock seconds are
   printed for context but never gated.

   --scaling — compare the newest jobs>1 entry against the newest
   jobs=1 entry (preferring a same-revision pair) and fail when the
   parallel run's wall clock exceeds the sequential run's by more than
   the scaling tolerance.  This is the anti-scaling gate: a parallel
   harness that is *slower* than sequential is a bug regardless of the
   machine.  On a single-core box parity (within tolerance) is the best
   possible outcome; real speedups (ratio < 1) need real cores.

     compare_bench [FILE]            regression gate (default: BENCH_history.jsonl)
     compare_bench --scaling [FILE]  anti-scaling gate
     BENCH_TOLERANCE=0.05            regression tolerance (fraction, default 0.02)
     SCALING_TOLERANCE=0.25          scaling headroom (fraction, default 0.15)

   Exit codes (both modes): 0 = ok / nothing to compare, 1 = gate
   failed, 2 = usage or input error. *)

module H = Obs_analysis.History

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare_bench: " ^ msg); exit 2) fmt

let env_fraction name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match float_of_string_opt s with
    | Some t when t >= 0. -> t
    | _ -> fail "%s must be a non-negative fraction, got %S" name s)

(* validate-real entries (non-empty [real] block) record wall-clock
   measurements of real domain runs, not simulated spans; both gates
   compare simulator numbers, so those entries are invisible here. *)
let load file =
  match H.load file with
  | Ok es -> List.filter (fun (e : H.entry) -> e.H.real = []) es
  | Error e -> fail "%s" e

(* ------------------------------------------------------------------ *)
(* Default mode: simulated-numbers regression gate                     *)

let regression_gate file =
  let tolerance = env_fraction "BENCH_TOLERANCE" 0.02 in
  (* The baseline: newest entry from another revision, same config
     digest if there is one. *)
  let baseline (newer : H.entry) rest =
    let other_rev = List.filter (fun (e : H.entry) -> e.H.rev <> newer.H.rev) rest in
    let same_config = List.filter (fun (e : H.entry) -> e.H.config = newer.H.config) other_rev in
    match same_config @ other_rev with [] -> None | older :: _ -> Some (older, newer)
  in
  let pair = match List.rev (load file) with [] -> None | newer :: rest -> baseline newer rest in
  match pair with
  | None ->
    Printf.printf "compare_bench: %s has no entries from two revisions — nothing to compare\n"
      file;
    exit 0
  | Some (older, newer) ->
    Printf.printf "compare_bench: %s -> %s (%s, tolerance %.1f%%)\n" older.H.rev newer.H.rev
      file (100. *. tolerance);
    if older.H.config <> newer.H.config then
      Printf.printf "  note: config digests differ (%s -> %s); comparing anyway\n"
        older.H.config newer.H.config;
    Printf.printf "  wall clock: %.1fs -> %.1fs (informational)\n" older.H.total_seconds
      newer.H.total_seconds;
    let regs = H.compare ~tolerance older newer in
    if regs = [] then begin
      Printf.printf "  no regressions across %d studies\n" (List.length newer.H.studies);
      exit 0
    end
    else begin
      List.iter
        (fun r -> Format.printf "  REGRESSION %a@." H.pp_regression r)
        regs;
      exit 1
    end

(* ------------------------------------------------------------------ *)
(* --scaling: parallel wall clock vs sequential wall clock             *)

let scaling_gate file =
  let tolerance = env_fraction "SCALING_TOLERANCE" 0.15 in
  let entries = load file in
  (* Newest-first; prefer a jobs=1 entry from the same revision as the
     parallel entry so the pair measures the same code. *)
  let rev_entries = List.rev entries in
  match List.find_opt (fun (e : H.entry) -> e.H.jobs > 1) rev_entries with
  | None ->
    Printf.printf "compare_bench --scaling: %s has no jobs>1 entry — nothing to compare\n" file;
    exit 0
  | Some par -> (
    let seq_same_rev =
      List.find_opt (fun (e : H.entry) -> e.H.jobs = 1 && e.H.rev = par.H.rev) rev_entries
    in
    let seq_any = List.find_opt (fun (e : H.entry) -> e.H.jobs = 1) rev_entries in
    match (if seq_same_rev <> None then seq_same_rev else seq_any) with
    | None ->
      Printf.printf "compare_bench --scaling: %s has no jobs=1 entry — nothing to compare\n"
        file;
      exit 0
    | Some seq ->
      if seq_same_rev = None then
        Printf.printf
          "  note: no jobs=1 entry at rev %s; comparing against rev %s — wall clocks may \
           reflect different code\n"
          par.H.rev seq.H.rev;
      let ratio =
        if seq.H.total_seconds > 0. then par.H.total_seconds /. seq.H.total_seconds else 1.
      in
      Printf.printf
        "compare_bench --scaling: jobs=%d %.2fs vs jobs=1 %.2fs at rev %s (ratio %.2f, \
         tolerance %.0f%%)\n"
        par.H.jobs par.H.total_seconds seq.H.total_seconds par.H.rev ratio (100. *. tolerance);
      if ratio > 1. +. tolerance then begin
        Printf.printf
          "  ANTI-SCALING: jobs=%d is %.0f%% slower than jobs=1 (allowed: %.0f%%)\n" par.H.jobs
          (100. *. (ratio -. 1.))
          (100. *. tolerance);
        exit 1
      end
      else begin
        Printf.printf "  ok: parallel run within tolerance of sequential\n";
        exit 0
      end)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> regression_gate "BENCH_history.jsonl"
  | [ "--scaling" ] -> scaling_gate "BENCH_history.jsonl"
  | [ "--scaling"; file ] -> scaling_gate file
  | [ file ] when file <> "--scaling" && String.length file > 0 && file.[0] <> '-' ->
    regression_gate file
  | _ -> fail "usage: compare_bench [--scaling] [FILE]"

(* A walk through the versioned (TLS) memory the paper assumes, as the
   runtime models it in Runtime.Spec_store: forwarding from the youngest
   earlier iteration, in-order commit, and validation by value.

     dune exec examples/tls_memory.exe
*)

module S = Runtime.Spec_store

let () =
  (* Location 0 starts at 100 and location 1 at 7. *)
  let store = S.create ~forwarding:true [| 100; 7 |] in
  let logs =
    Array.init 4 (fun i ->
        let log = S.log_create () in
        S.start log ~iteration:i;
        log)
  in
  let read i loc = S.read store logs.(i) loc in
  let writes = [| [ (0, 111) ]; [ (0, 222); (1, 7) ]; []; [] |] in
  Format.printf "Four speculative iterations, executed out of order:@.@.";
  S.publish store ~iteration:0 writes.(0);
  Format.printf "iteration 0 writes loc 0 = 111 into its buffer and publishes it@.";
  Format.printf "iteration 2 reads loc 0 -> %d  (forwarded from iteration 0)@." (read 2 0);
  Format.printf "iteration 2 reads loc 1 -> %d@." (read 2 1);
  Format.printf "iteration 1 reads loc 0 -> %d  (forwarded from iteration 0)@." (read 1 0);
  S.publish store ~iteration:1 writes.(1);
  Format.printf "iteration 1 writes loc 0 = 222 and loc 1 = 7 (the value already there)@.";
  Format.printf "iteration 3 reads loc 0 -> %d  (the youngest earlier writer, iteration 1)@."
    (read 3 0);
  Format.printf "iteration 3 reads loc 1 -> %d@.@." (read 3 1);

  (* Commit in iteration order: validate the logged reads against the
     committed state, which now holds what a sequential run would have
     read, then apply the buffered writes. *)
  Format.printf "Commit in order, validating each iteration's reads by value:@.@.";
  for i = 0 to 3 do
    let stale = S.stale store logs.(i) in
    if stale = 0 then Format.printf "iteration %d: 0 stale reads, commits@." i
    else begin
      (* The runtime squashes the iteration and re-executes it against
         committed state before committing it. *)
      S.start logs.(i) ~iteration:i;
      Format.printf "iteration %d: %d stale read (loc 0 was 111, is %d) -> squash, re-run@."
        i stale (read i 0)
    end;
    S.commit store writes.(i);
    S.retire store ~iteration:i writes.(i)
  done;
  Format.printf "@.Iteration 1's write of 7 to loc 1 was silent: the reads of loc 1@.";
  Format.printf "by iterations 2 and 3 still match committed state, so they pass.@.";
  Format.printf "committed: loc 0 = %d, loc 1 = %d@." (S.committed store 0)
    (S.committed store 1)

(* Each case is wrapped with a wall-clock timer; at exit the per-suite
   totals go to stderr, so every test log shows where the loop spends its
   time.  The wrapper only times — it changes nothing a case checks. *)

let timed (name, cases) =
  let wall = ref 0. and ran = ref 0 in
  let wrap (case, speed, f) =
    ( case,
      speed,
      fun x ->
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            wall := !wall +. (Unix.gettimeofday () -. t0);
            incr ran)
          (fun () -> f x) )
  in
  ((name, List.map wrap cases), (name, wall, ran))

let report timers =
  let total = List.fold_left (fun acc (_, wall, _) -> acc +. !wall) 0. timers in
  (* after Alcotest's own summary, which is still buffered on stdout *)
  flush stdout;
  Printf.eprintf "\nper-suite wall time:\n";
  List.iter
    (fun (name, wall, ran) ->
      if !ran > 0 then Printf.eprintf "  %-12s %8.2f s  %3d cases\n" name !wall !ran)
    timers;
  Printf.eprintf "  %-12s %8.2f s\n%!" "total" total

let () =
  let suites, timers =
    List.split
      (List.map timed
         [
           ("linalg", Test_linalg.suite);
           ("poly", Test_poly.suite);
           ("obs", Test_obs.suite);
           ("slo", Test_slo.suite);
           ("analysis", Test_analysis.suite);
           ("storage", Test_storage.suite);
           ("sim-kernel", Test_sim_kernel.suite);
           ("core", Test_core.suite);
           ("workloads", Test_workloads.suite);
           ("engine", Test_engine.suite);
           ("faults", Test_faults.suite);
           ("parallel", Test_parallel.suite);
           ("fidelity", Test_fidelity.suite);
           ("bench", Test_bench.suite);
           ("traffic", Test_traffic.suite);
           ("trace", Test_trace.suite);
           ("overload", Test_overload.suite);
         ])
  in
  at_exit (fun () -> report timers);
  Alcotest.run "flopt" suites

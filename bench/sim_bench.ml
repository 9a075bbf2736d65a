(* Micro-benchmark for the simulation kernel: times the closed-loop replay
   (client buffers + hierarchy + disks) of the production flat kernel
   (Flat_lru-backed Lru, whose state Hierarchy drives directly) against the
   retained reference kernel (Lru.reference closures, through the same
   Hierarchy access body) over the 16-app suite, default and inter-node
   layouts.  Streams are pregenerated, so tracegen cost is excluded; both
   kernels must report the same modeled elapsed time or the run aborts.

     dune exec --profile release bench/sim_bench.exe [-- sample N] [reps N]

   A malformed or unknown argument exits 2 with a [sim_bench:] message. *)

open Flo_workloads
open Flo_engine

let config = Config.default

let () =
  let sample = ref 8 and reps = ref 3 in
  let positive name v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "sim_bench: %s must be a positive integer, got %S\n" name v;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "sample" :: n :: rest ->
      sample := positive "sample" n;
      parse rest
    | "reps" :: n :: rest ->
      reps := positive "reps" n;
      parse rest
    | arg :: _ ->
      Printf.eprintf "sim_bench: unknown or incomplete argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sample = !sample and reps = !reps in
  Printf.printf "sim_bench: closed-loop kernel, sample %d, best of %d\n" sample reps;
  Printf.printf "%-10s %-8s %12s %12s %8s\n" "app" "layout" "ref (ms)" "fast (ms)"
    "speedup";
  let tot_ref = ref 0. and tot_fast = ref 0. in
  let tot_requests = ref 0 in
  List.iter
    (fun app ->
      List.iter
        (fun (mode, layouts) ->
          let p = Kernel_bench.prepare ~config ~layouts ~sample app in
          let fast = Kernel_bench.time ~reps Kernel_bench.Fast p in
          let refr = Kernel_bench.time ~reps Kernel_bench.Reference p in
          if fast.Kernel_bench.elapsed_us <> refr.Kernel_bench.elapsed_us then begin
            Printf.eprintf
              "sim_bench: kernels disagree on %s/%s: fast %.17g us, ref %.17g us\n"
              app.App.name mode fast.Kernel_bench.elapsed_us
              refr.Kernel_bench.elapsed_us;
            exit 1
          end;
          tot_ref := !tot_ref +. refr.Kernel_bench.wall_s;
          tot_fast := !tot_fast +. fast.Kernel_bench.wall_s;
          tot_requests := !tot_requests + fast.Kernel_bench.block_requests;
          Printf.printf "%-10s %-8s %12.2f %12.2f %7.2fx\n" app.App.name mode
            (refr.Kernel_bench.wall_s *. 1e3)
            (fast.Kernel_bench.wall_s *. 1e3)
            (refr.Kernel_bench.wall_s /. Float.max 1e-9 fast.Kernel_bench.wall_s))
        [
          ("default", Experiment.default_layouts app);
          ("inter", Experiment.inter_layouts config app);
        ])
    Suite.all;
  Printf.printf "%-10s %-8s %12.2f %12.2f %7.2fx\n" "TOTAL" "" (!tot_ref *. 1e3)
    (!tot_fast *. 1e3)
    (!tot_ref /. Float.max 1e-9 !tot_fast);
  Printf.printf "modeled results identical across kernels\n";
  Printf.printf "blocks_per_sec: %.3e (reference %.3e)\n"
    (float_of_int !tot_requests /. Float.max 1e-9 !tot_fast)
    (float_of_int !tot_requests /. Float.max 1e-9 !tot_ref)

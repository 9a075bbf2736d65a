(* Micro-benchmark for the trace-generation fast path: times
   Tracegen.nest_streams (strength-reduced cursors) against
   Tracegen.reference_streams (the retained naive per-element generator)
   over the 16-app suite, default and inter-node layouts.

     dune exec --profile release bench/tracegen_bench.exe [-- sample N]

   A malformed or unknown argument exits 2 with a [tracegen_bench:]
   message. *)

open Flo_storage
open Flo_workloads
open Flo_engine

let config = Config.default

let time f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let () =
  let sample = ref 1 in
  let rec parse = function
    | [] -> ()
    | "sample" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> sample := n
      | _ ->
        Printf.eprintf "tracegen_bench: sample must be a positive integer, got %S\n" n;
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "tracegen_bench: unknown or incomplete argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sample = !sample in
  let topo = config.Config.topology in
  let block_elems = topo.Topology.block_elems in
  let threads = Config.threads config in
  let blocks_per_thread = config.Config.blocks_per_thread in
  Printf.printf "%-10s %-8s %12s %12s %8s\n" "app" "layout" "naive (ms)" "fast (ms)" "speedup";
  let tot_naive = ref 0. and tot_fast = ref 0. in
  List.iter
    (fun app ->
      List.iter
        (fun (mode, layouts) ->
          let gen streams () =
            List.iter
              (fun nest ->
                ignore
                  (streams ~layouts ~block_elems ~threads ~blocks_per_thread ~sample nest))
              app.App.program.Flo_poly.Program.nests
          in
          let naive =
            time (gen (fun ~layouts ~block_elems ~threads ~blocks_per_thread ~sample n ->
                Tracegen.reference_streams ~layouts ~block_elems ~threads
                  ~blocks_per_thread ~sample n))
          in
          let fast =
            time (gen (fun ~layouts ~block_elems ~threads ~blocks_per_thread ~sample n ->
                Tracegen.nest_streams ~layouts ~block_elems ~threads ~blocks_per_thread
                  ~sample n))
          in
          tot_naive := !tot_naive +. naive;
          tot_fast := !tot_fast +. fast;
          Printf.printf "%-10s %-8s %12.2f %12.2f %7.2fx\n" app.App.name mode
            (naive *. 1e3) (fast *. 1e3) (naive /. Float.max 1e-9 fast))
        [
          ("default", Experiment.default_layouts app);
          ("inter", Experiment.inter_layouts config app);
        ])
    Suite.all;
  Printf.printf "%-10s %-8s %12.2f %12.2f %7.2fx\n" "TOTAL" "" (!tot_naive *. 1e3)
    (!tot_fast *. 1e3)
    (!tot_naive /. Float.max 1e-9 !tot_fast)

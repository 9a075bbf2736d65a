(* Generate the expected-output tables (expected/*.txt) and cross-check
   every pinned digest against an independent oracle before writing it:

   - suite_sweep: [Run.run] on the production kernel equals the retained
     reference LRU kernel ([Run.Custom] of [Lru.reference]), the
     [Kernel_bench] Fast and Reference replays agree, and
     [Tracegen.nest_streams] equals [Tracegen.reference_streams];
   - fidelity_sweep: zero drift, the traced split reproduces the untraced
     digest, and the sink-free fast path reproduces the observed run;
   - traffic workloads: jobs 1, jobs 2 and the traced split agree, and
     (storm) the modeled tracer leaves every verdict unchanged.

   Run as [flobench --pin DIR]; it exits 1 on any disagreement. *)

open Flo_engine
open Flo_storage
module W = Workload

let seeds = List.init 32 Fun.id @ [ 42 ]
let failures = ref 0

let agree what a b =
  if a <> b then begin
    incr failures;
    Printf.eprintf "pin: %s disagrees:\n  %s\n  %s\n%!" what a b
  end

let digest what = function
  | Ok d -> d
  | Error msg ->
    incr failures;
    Printf.eprintf "pin: %s: %s\n%!" what msg;
    "error"

let traced_digest (op : W.op) = digest op.W.traced_key (op.W.traced (Spans.create ()))

let suite () =
  List.concat_map
    (fun (app : Flo_workloads.App.t) ->
      List.concat_map
        (fun layout ->
          let op = Sweeps.suite_op app layout in
          let layouts = Sweeps.layouts_of app layout in
          let fast = digest op.W.key (op.W.run ~jobs:1) in
          let reference =
            Sweeps.run_digest
              (Run.run ~caching:(Run.Custom (Lru.reference, Lru.reference)) ~config:W.config
                 ~layouts app)
          in
          agree (op.W.key ^ " fast vs reference kernel") fast reference;
          let prepared = Kernel_bench.prepare ~config:W.config ~layouts app in
          let kb kernel = Sweeps.kernel_digest (Kernel_bench.time ~reps:1 kernel prepared) in
          let kb_fast = kb Kernel_bench.Fast in
          agree (op.W.traced_key ^ " Fast vs Reference") kb_fast (kb Kernel_bench.Reference);
          agree (op.W.traced_key ^ " traced") kb_fast (traced_digest op);
          let topo = W.config.Config.topology in
          List.iter
            (fun nest ->
              let threads = Config.threads W.config
              and block_elems = topo.Topology.block_elems
              and blocks_per_thread = W.config.Config.blocks_per_thread
              and cluster = Topology.threads_per_io topo in
              if
                Tracegen.nest_streams ~layouts ~block_elems ~threads ~blocks_per_thread
                  ~cluster nest
                <> Tracegen.reference_streams ~layouts ~block_elems ~threads
                     ~blocks_per_thread ~cluster nest
              then
                agree (op.W.key ^ " streams") "nest_streams" "reference_streams")
            app.Flo_workloads.App.program.Flo_poly.Program.nests;
          Printf.eprintf "pin: %s ok\n%!" op.W.key;
          [ (op.W.key, fast); (op.W.traced_key, kb_fast) ])
        [ Sweeps.Default; Sweeps.Inter ])
    Flo_workloads.Suite.all

let fidelity () =
  List.map
    (fun (app : Flo_workloads.App.t) ->
      let op = Sweeps.fidelity_op app in
      let d = digest op.W.key (op.W.run ~jobs:1) in
      agree (op.W.key ^ " traced") d (traced_digest op);
      let fast =
        Run.run ~sample:Sweeps.fidelity_sample ~config:W.config
          ~layouts:(Sweeps.layouts_of app Sweeps.Inter) app
      in
      if not (String.starts_with ~prefix:(Sweeps.run_digest fast ^ " ") d) then
        agree (op.W.key ^ " sink-free run") (Sweeps.run_digest fast) d;
      Printf.eprintf "pin: fidelity %s ok\n%!" op.W.key;
      (op.W.key, d))
    Flo_workloads.Suite.all

let traffic_op (op : W.op) =
  let d = digest op.W.key (op.W.run ~jobs:1) in
  agree (op.W.key ^ " jobs 2") d (digest op.W.key (op.W.run ~jobs:2));
  agree (op.W.key ^ " traced") d (traced_digest op);
  Printf.eprintf "pin: %s ok\n%!" op.W.key;
  (op.W.key, d)

let sizes seed = if seed = 42 then [ W.Full; W.Tiny ] else [ W.Full ]

let fleet () =
  List.concat_map
    (fun seed ->
      List.map (fun size -> traffic_op (Traffic_ops.fleet_op ~size ~seed)) (sizes seed))
    seeds

let storm () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun size -> List.map traffic_op (Traffic_ops.storm_ops ~size ~seed))
        (sizes seed))
    seeds

let write dir name entries =
  let path = Filename.concat dir (name ^ ".txt") in
  let oc = open_out path in
  output_string oc (Expected.to_lines entries);
  close_out oc;
  Printf.eprintf "pin: wrote %d digests to %s\n%!" (List.length entries) path

let run ~dir ~workloads =
  List.iter
    (fun name ->
      let entries =
        match name with
        | "suite_sweep" -> suite ()
        | "fidelity_sweep" -> fidelity ()
        | "traffic_fleet" -> fleet ()
        | "overload_storm" -> storm ()
        | _ -> invalid_arg ("unknown workload " ^ name)
      in
      write dir name entries)
    workloads;
  !failures = 0

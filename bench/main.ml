(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus two ablations, and measures the pass's
   compile-time cost with bechamel.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- table2 fig7a    # selected experiments

   Absolute numbers are modeled (scaled system, see DESIGN.md); the shapes —
   per-app benefit groups, orderings, averages — are compared against the
   paper's in EXPERIMENTS.md. *)

open Flo_storage
open Flo_core
open Flo_workloads
open Flo_engine

let config = Config.default

let apps = Suite.all

(* memoized per-app default and inter runs under the default config *)
let default_runs = Hashtbl.create 16
let inter_runs = Hashtbl.create 16

let default_run app =
  match Hashtbl.find_opt default_runs app.App.name with
  | Some r -> r
  | None ->
    let r = Experiment.default_run config app in
    Hashtbl.add default_runs app.App.name r;
    r

let inter_run app =
  match Hashtbl.find_opt inter_runs app.App.name with
  | Some r -> r
  | None ->
    let r = Experiment.inter_run config app in
    Hashtbl.add inter_runs app.App.name r;
    r

let norm app r = Experiment.normalized ~base:(default_run app) r

let improvement_pct norms = 100. *. (1. -. Report.mean norms)

(* ---- Table 1: system configuration ----------------------------------- *)

let table1 () =
  let t = config.Config.topology in
  Report.print_table ~title:"Table 1: system parameters (scaled; paper values in parentheses)"
    ~header:[ "parameter"; "value" ]
    [
      [ "compute nodes"; string_of_int t.Topology.compute_nodes ^ " (64)" ];
      [ "I/O nodes"; string_of_int t.Topology.io_nodes ^ " (16)" ];
      [ "storage nodes"; string_of_int t.Topology.storage_nodes ^ " (4)" ];
      [ "data striping"; "all storage nodes, round-robin (same)" ];
      [ "block = stripe"; string_of_int t.Topology.block_elems ^ " elements (128 kB)" ];
      [ "I/O cache"; string_of_int t.Topology.io_cache_blocks ^ " blocks (1 GB)" ];
      [ "storage cache"; string_of_int t.Topology.storage_cache_blocks ^ " blocks (2 GB)" ];
      [ "disk"; Printf.sprintf "%d RPM model (10,000 RPM)" config.Config.disk_params.Disk.rpm ];
    ]

(* ---- Table 2: default execution ---------------------------------------- *)

let table2 () =
  let rows =
    List.map
      (fun app ->
        let r = default_run app in
        [
          app.App.name;
          Report.pct (Run.l1_miss_per_element r);
          Report.pct (Run.l2_miss_per_element r);
          Report.ms r.Run.elapsed_us;
        ])
      apps
  in
  Report.print_table
    ~title:"Table 2: default execution (miss rates per element access, modeled time)"
    ~header:[ "application"; "I/O cache miss %"; "storage miss %"; "time (ms)" ]
    rows

(* ---- Table 3: normalized misses after optimization ---------------------- *)

let table3 () =
  let rows =
    List.map
      (fun app ->
        let d = default_run app and o = inter_run app in
        let ratio f = f o /. max 1e-12 (f d) in
        [
          app.App.name;
          Report.f2 (ratio Run.l1_miss_per_element);
          Report.f2 (ratio Run.l2_miss_per_element);
        ])
      apps
  in
  Report.print_table
    ~title:"Table 3: cache misses after optimization (normalized to Table 2)"
    ~header:[ "application"; "I/O caches"; "storage caches" ]
    rows

(* ---- Fig 7(a): normalized execution times ------------------------------- *)

let fig7a () =
  let norms = List.map (fun app -> norm app (inter_run app)) apps in
  let rows =
    List.map2
      (fun app n -> [ app.App.name; Report.f3 n; App.group_to_string app.App.group ])
      apps norms
  in
  Report.print_table ~title:"Fig 7(a): normalized execution time (inter-node layout)"
    ~header:[ "application"; "normalized"; "expected group" ]
    rows;
  Printf.printf "average improvement: %.1f%% (mean of the paper's per-group ranges: ~14%%)\n\n"
    (improvement_pct norms)

(* ---- Fig 7(b): thread-to-compute-node mappings --------------------------- *)

let fig7b () =
  let rows =
    List.map
      (fun app ->
        let cells =
          List.map
            (fun seed ->
              let r =
                if seed = 0 then inter_run app
                else
                  Experiment.inter_run
                    ~mapping:(Experiment.random_mapping ~seed config)
                    config app
              in
              Report.f3 (norm app r))
            [ 0; 1; 2; 3 ]
        in
        (app.App.name :: cells)
        @ [ (if app.App.master_slave then "master-slave" else "data-parallel") ])
      apps
  in
  Report.print_table ~title:"Fig 7(b): sensitivity to thread mapping (normalized times)"
    ~header:[ "application"; "Mapping I"; "Mapping II"; "Mapping III"; "Mapping IV"; "model" ]
    rows

(* ---- Fig 7(c): cache capacities ------------------------------------------- *)

let with_caches scale =
  let t = config.Config.topology in
  Config.with_topology config
    (Topology.make ~compute_nodes:t.Topology.compute_nodes ~io_nodes:t.Topology.io_nodes
       ~storage_nodes:t.Topology.storage_nodes ~block_elems:t.Topology.block_elems
       ~io_cache_blocks:(max 1 (int_of_float (float_of_int t.Topology.io_cache_blocks *. scale)))
       ~storage_cache_blocks:
         (max 1 (int_of_float (float_of_int t.Topology.storage_cache_blocks *. scale)))
       ())

let fig7c () =
  let scales = [ 0.25; 0.5; 1.0; 2.0 ] in
  let rows =
    List.map
      (fun app ->
        app.App.name
        :: List.map
             (fun scale ->
               let cfg = with_caches scale in
               let d = Experiment.default_run cfg app in
               let o = Experiment.inter_run cfg app in
               Report.f3 (Experiment.normalized ~base:d o))
             scales)
      apps
  in
  Report.print_table ~title:"Fig 7(c): sensitivity to cache capacities (normalized times)"
    ~header:[ "application"; "1/4 caches"; "1/2 caches"; "default"; "2x caches" ]
    rows;
  print_endline "(paper: smaller caches -> larger improvements)\n"

(* ---- Fig 7(d): node counts -------------------------------------------------- *)

let fig7d () =
  let configs =
    [ ("(64,16,4)", 64, 16, 4); ("(64,8,4)", 64, 8, 4); ("(64,8,2)", 64, 8, 2);
      ("(64,32,8)", 64, 32, 8); ("(32,16,4)", 32, 16, 4) ]
  in
  let t = config.Config.topology in
  let rows =
    List.map
      (fun app ->
        app.App.name
        :: List.map
             (fun (_, c, io, st) ->
               let cfg =
                 Config.with_topology config
                   (Topology.make ~compute_nodes:c ~io_nodes:io ~storage_nodes:st
                      ~block_elems:t.Topology.block_elems
                      ~io_cache_blocks:t.Topology.io_cache_blocks
                      ~storage_cache_blocks:t.Topology.storage_cache_blocks ())
               in
               let d = Experiment.default_run cfg app in
               let o = Experiment.inter_run cfg app in
               Report.f3 (Experiment.normalized ~base:d o))
             configs)
      apps
  in
  Report.print_table
    ~title:"Fig 7(d): sensitivity to node counts (compute, I/O, storage)"
    ~header:("application" :: List.map (fun (n, _, _, _) -> n) configs)
    rows;
  print_endline "(paper: more sharing per cache -> larger improvements)\n"

(* ---- Fig 7(e): block size ----------------------------------------------------- *)

let fig7e () =
  let t = config.Config.topology in
  let sizes = [ 16; 32; 64; 128 ] in
  let rows =
    List.map
      (fun app ->
        app.App.name
        :: List.map
             (fun block_elems ->
               (* cache capacity held constant in bytes *)
               let cfg =
                 Config.with_topology config
                   (Topology.make ~compute_nodes:t.Topology.compute_nodes
                      ~io_nodes:t.Topology.io_nodes ~storage_nodes:t.Topology.storage_nodes
                      ~block_elems
                      ~io_cache_blocks:
                        (t.Topology.io_cache_blocks * t.Topology.block_elems / block_elems)
                      ~storage_cache_blocks:
                        (t.Topology.storage_cache_blocks * t.Topology.block_elems / block_elems)
                      ())
               in
               let d = Experiment.default_run cfg app in
               let o = Experiment.inter_run cfg app in
               Report.f3 (Experiment.normalized ~base:d o))
             sizes)
      apps
  in
  Report.print_table ~title:"Fig 7(e): sensitivity to data block size (elements per block)"
    ~header:("application" :: List.map string_of_int sizes)
    rows;
  print_endline
    "(paper: smaller blocks -> larger improvements; our model inverts this — see EXPERIMENTS.md)\n"

(* ---- Fig 7(f): layers targeted ------------------------------------------------- *)

let fig7f () =
  let per_scope = Hashtbl.create 3 in
  let rows =
    List.map
      (fun app ->
        let cell scope =
          let r =
            match scope with
            | Internode.Both -> inter_run app
            | s -> Experiment.inter_run ~scope:s config app
          in
          let n = norm app r in
          let prev = try Hashtbl.find per_scope scope with Not_found -> [] in
          Hashtbl.replace per_scope scope (n :: prev);
          Report.f3 n
        in
        [ app.App.name; cell Internode.Io_only; cell Internode.Storage_only;
          cell Internode.Both ])
      apps
  in
  Report.print_table ~title:"Fig 7(f): layers targeted by the optimization"
    ~header:[ "application"; "I/O only"; "storage only"; "both" ]
    rows;
  let mean scope = improvement_pct (Hashtbl.find per_scope scope) in
  Printf.printf
    "average improvements: io-only %.1f%%, storage-only %.1f%%, both %.1f%% (paper: 9.1 / 13.0 / 23.7)\n\n"
    (mean Internode.Io_only) (mean Internode.Storage_only) (mean Internode.Both)

(* ---- Fig 7(g): prior work --------------------------------------------------------- *)

let fig7g () =
  let cm = ref [] and ri = ref [] and inter = ref [] in
  let rows =
    List.map
      (fun app ->
        let compmap = Experiment.compmap_run ~sample:8 config app in
        let reindex = Experiment.reindex_static_run config app in
        let our = inter_run app in
        let n_cm = norm app compmap and n_ri = norm app reindex and n_in = norm app our in
        cm := n_cm :: !cm;
        ri := n_ri :: !ri;
        inter := n_in :: !inter;
        [ app.App.name; Report.f3 n_cm; Report.f3 n_ri; Report.f3 n_in ])
      apps
  in
  Report.print_table ~title:"Fig 7(g): comparison against prior optimizations"
    ~header:[ "application"; "compmap [26]"; "reindex [27]"; "inter (ours)" ]
    rows;
  Printf.printf
    "average improvements: compmap %.1f%%, reindex %.1f%%, inter %.1f%% (paper: 7.6 / 7.1 / 23.7)\n\n"
    (improvement_pct !cm) (improvement_pct !ri) (improvement_pct !inter)

(* ---- Fig 7(h): exclusive cache management ------------------------------------------ *)

let fig7h () =
  let lru = ref [] and karma = ref [] and demote = ref [] in
  let rows =
    List.map
      (fun app ->
        let n_lru = norm app (inter_run app) in
        let ratio caching =
          let d = Experiment.default_run ~caching config app in
          let o = Experiment.inter_run ~caching config app in
          o.Run.elapsed_us /. d.Run.elapsed_us
        in
        let n_karma = ratio Run.Karma in
        let n_demote = ratio Run.Demote in
        lru := n_lru :: !lru;
        karma := n_karma :: !karma;
        demote := n_demote :: !demote;
        [ app.App.name; Report.f3 n_lru; Report.f3 n_karma; Report.f3 n_demote ])
      apps
  in
  Report.print_table
    ~title:"Fig 7(h): our optimization under hierarchical cache management schemes"
    ~header:[ "application"; "LRU (default)"; "KARMA [47]"; "DEMOTE-LRU [44]" ]
    rows;
  Printf.printf
    "average improvements: LRU %.1f%%, KARMA %.1f%%, DEMOTE %.1f%% (paper: 23.7 / 30.1 / 28.6)\n\n"
    (improvement_pct !lru) (improvement_pct !karma) (improvement_pct !demote)

(* ---- Ablation A1: reference weighting (Eq. 5) --------------------------------------- *)

let ablation_weights () =
  let rows =
    List.filter_map
      (fun app ->
        let weighted = norm app (inter_run app) in
        let unweighted = norm app (Experiment.inter_run ~weighted:false config app) in
        if abs_float (weighted -. unweighted) > 1e-9 then
          Some [ app.App.name; Report.f3 weighted; Report.f3 unweighted ]
        else None)
      apps
  in
  Report.print_table
    ~title:"Ablation A1: Step I constraint ordering (weighted vs declaration order)"
    ~header:[ "application (only those affected)"; "weighted (Eq. 5)"; "unweighted" ]
    (if rows = [] then [ [ "(no app affected under this configuration)"; "-"; "-" ] ]
     else rows)

(* ---- Ablation A2: chunk alignment to the data block ----------------------------------- *)

let ablation_pattern () =
  (* aligned chunks (the default) vs element-aligned chunks: quantifies the
     boundary-block sharing the full pass avoids *)
  let rows =
    List.map
      (fun app ->
        let aligned = norm app (inter_run app) in
        let unaligned =
          let spec0 = Config.spec_for config app.App.program in
          let spec =
            Internode.make_spec ~threads:spec0.Internode.threads
              ~num_blocks:spec0.Internode.num_blocks ~layers:spec0.Internode.layers ~align:1
          in
          let plan = Optimizer.run ~spec app.App.program in
          norm app
            (Run.run ~config ~layouts:(fun id -> Optimizer.layout_of plan id) app)
        in
        [ app.App.name; Report.f3 aligned; Report.f3 unaligned ])
      apps
  in
  Report.print_table
    ~title:"Ablation A2: chunk alignment to the block/stripe size"
    ~header:[ "application"; "block-aligned chunks"; "element-aligned chunks" ]
    rows

(* ---- Ablation A3: template-hierarchy compilation (Section 4.3) ------------------------- *)

let ablation_template () =
  let rows =
    List.map
      (fun app ->
        let exact = norm app (inter_run app) in
        let template = norm app (Experiment.inter_template_run config app) in
        [ app.App.name; Report.f3 exact; Report.f3 template ])
      apps
  in
  Report.print_table
    ~title:"Ablation A3: capacity-exact vs template-hierarchy compilation (Sec 4.3)"
    ~header:[ "application"; "exact hierarchy"; "template (capacity-oblivious)" ]
    rows;
  print_endline "(the paper predicts the template variant works 'with some performance loss')
"

(* ---- Amortization: canonical <-> optimized conversions (Section 4.3) -------------------- *)

let amortization () =
  let block_elems = config.Config.topology.Topology.block_elems in
  let rows =
    List.filter_map
      (fun app ->
        let plan_ = Experiment.inter_plan config app in
        let conversion =
          List.fold_left
            (fun acc decision ->
              match decision.Optimizer.layout with
              | File_layout.Row_major _ -> acc
              | to_layout ->
                let from_layout =
                  File_layout.Row_major (File_layout.space to_layout)
                in
                let p = Relayout.plan ~block_elems ~from_layout ~to_layout in
                acc +. Relayout.cost_us ~read_us:1400. ~write_us:1400. p)
            0. plan_.Optimizer.decisions
        in
        let d = default_run app and o = inter_run app in
        match
          Relayout.break_even ~conversion_us:(2. *. conversion)
            ~default_us:d.Run.elapsed_us ~optimized_us:o.Run.elapsed_us
        with
        | Some n ->
          Some
            [ app.App.name;
              Printf.sprintf "%.1f" (2. *. conversion /. 1000.);
              string_of_int n ]
        | None -> Some [ app.App.name; Printf.sprintf "%.1f" (2. *. conversion /. 1000.); "-" ])
      apps
  in
  Report.print_table
    ~title:"Amortization: in+out canonical-layout conversions (Sec 4.3 extension)"
    ~header:[ "application"; "conversion cost (ms)"; "executions to break even" ]
    rows

(* ---- Prefetching: linear layouts make readahead effective ------------------------------- *)

let prefetch () =
  let rows =
    List.map
      (fun app ->
        let run layouts readahead =
          (Run.run ~readahead ~config ~layouts app).Run.elapsed_us
        in
        let dl = Experiment.default_layouts app in
        let il = Experiment.inter_layouts config app in
        let d0 = run dl 0 and d2 = run dl 2 in
        let o0 = run il 0 and o2 = run il 2 in
        [
          app.App.name;
          Report.f3 (d2 /. d0);
          Report.f3 (o2 /. o0);
        ])
      apps
  in
  Report.print_table
    ~title:"Prefetching: execution time with readahead=2, normalized to readahead=0"
    ~header:[ "application"; "default layout"; "inter-node layout" ]
    rows;
  print_endline
    "(the paper remarks linear layouts improve hardware prefetching: readahead should
     help the optimized layout at least as much as the scattered default)
"

(* ---- Latency: request-latency percentiles from the observability layer ------------------ *)

let latency () =
  let rows =
    List.map
      (fun app ->
        let run layouts =
          let registry = Flo_obs.Metrics.create () in
          ignore (Run.run ~metrics:registry ~config ~layouts app);
          match Flo_obs.Metrics.find_histogram registry "request_latency_us" with
          | Some h ->
            ( Flo_obs.Histogram.percentile h 0.5,
              Flo_obs.Histogram.percentile h 0.99 )
          | None -> (0., 0.)
        in
        let d50, d99 = run (Experiment.default_layouts app) in
        let o50, o99 = run (Experiment.inter_layouts config app) in
        [
          app.App.name;
          Report.f1 d50; Report.f1 d99;
          Report.f1 o50; Report.f1 o99;
        ])
      apps
  in
  Report.print_table
    ~title:"Latency: per-request modeled latency percentiles (us), default vs inter-node"
    ~header:
      [ "application"; "default p50"; "default p99"; "inter p50"; "inter p99" ]
    rows;
  print_endline
    "(per-request percentiles, not totals: the pass coalesces away the cheap\n\
     \ cache-hit requests, so the surviving mix is disk-heavier — p99 can rise\n\
     \ even as the number of requests and total time drop sharply)
"

(* ---- Trace analysis: the Step I/II objectives, observed ---------------------------------- *)

let analysis () =
  let module A = Flo_analysis.Analyzer in
  let analyze layouts app =
    let a = A.create () in
    ignore (Run.run ~config ~layouts ~sink:(A.sink a) app);
    a
  in
  let cross = ref [] and conflicts = ref [] in
  let rows =
    List.map
      (fun app ->
        let d = analyze (Experiment.default_layouts app) app in
        let o = analyze (Experiment.inter_layouts config app) app in
        let dc = A.cross_shared_at d Flo_obs.Event.L2
        and oc = A.cross_shared_at o Flo_obs.Event.L2 in
        let df = A.conflicts_at d Flo_obs.Event.L2
        and off = A.conflicts_at o Flo_obs.Event.L2 in
        let p50 a' =
          let h = A.reuse_histogram_at a' Flo_obs.Event.L1 in
          if Flo_obs.Histogram.is_empty h then "-"
          else Report.f1 (Flo_obs.Histogram.percentile h 0.5)
        in
        if dc > 0 then cross := (float_of_int oc /. float_of_int dc) :: !cross;
        if df > 0 then conflicts := (float_of_int off /. float_of_int df) :: !conflicts;
        [
          app.App.name;
          string_of_int dc; string_of_int oc;
          string_of_int df; string_of_int off;
          p50 d; p50 o;
        ])
      apps
  in
  Report.print_table
    ~title:
      "Trace analysis: L2 cross-thread sharing, eviction conflicts, L1 reuse p50 \
       (default vs inter-node layout)"
    ~header:
      [ "application"; "shared (def)"; "shared (opt)"; "confl (def)"; "confl (opt)";
        "reuse p50 (def)"; "reuse p50 (opt)" ]
    rows;
  Printf.printf
    "cross-thread shared blocks, optimized/default mean ratio: %.3f over %d apps with sharing\n"
    (Report.mean !cross) (List.length !cross);
  if !conflicts <> [] then
    Printf.printf "eviction conflicts, optimized/default mean ratio: %.3f over %d apps\n"
      (Report.mean !conflicts) (List.length !conflicts);
  print_newline ()

(* ---- C1: compile-time cost (bechamel) -------------------------------------------------- *)

let compile_bench () =
  let open Bechamel in
  let test_of_app app =
    Test.make ~name:app.App.name
      (Staged.stage (fun () -> ignore (Experiment.inter_plan config app)))
  in
  let test = Test.make_grouped ~name:"pass" (List.map test_of_app apps) in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  print_endline "== C1: compile-time cost of the pass (bechamel) ==";
  (* gather first so the name column is as wide as its widest cell (and the
     rows print in a stable order, not Hashtbl order) *)
  let rows =
    Hashtbl.fold
      (fun name res acc ->
        let cell =
          match Analyze.OLS.estimates res with
          | Some [ est ] -> Printf.sprintf "%12.1f us per invocation" (est /. 1000.)
          | _ -> "(no estimate)"
        in
        (name, cell) :: acc)
      results []
    |> List.sort compare
  in
  let width = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 rows in
  List.iter (fun (name, cell) -> Printf.printf "%-*s %s\n" width name cell) rows;
  print_newline ();
  print_endline
    "(paper: +36% average compilation time, max ~50 s inside SUIF; our pass runs on\n\
     polyhedral summaries, so invocations are microseconds)";
  print_newline ()

(* ---- json: machine-readable trajectory manifest (Bench_schema) --------------------------- *)

(* `bench -- json --out FILE [--apps a,b] [--sample N] [--jobs N]` records
   the headline numbers of this invocation as a flopt-bench manifest for
   `flopt bench-diff`.  Deterministic modeled quantities are gated (CI
   compares them against bench/baseline.json); bechamel wall times ride
   along ungated.  Collection fans over apps on a domain pool (Bench_json);
   with --jobs > 1 the gated metrics are re-collected at --jobs 1 and the
   two must agree exactly — the determinism self-check — and the suite
   wall-clock speedup is recorded ungated. *)
let json_mode args =
  let out = ref None and app_filter = ref None and sample = ref 1 in
  let jobs = ref (Parallel.default_jobs ()) in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | "--apps" :: v :: rest ->
      app_filter := Some (String.split_on_char ',' v);
      parse rest
    | "--sample" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> sample := n
      | _ ->
        prerr_endline "bench json: --sample must be a positive integer";
        exit 2);
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n
      | _ ->
        prerr_endline "bench json: --jobs must be a positive integer";
        exit 2);
      parse rest
    | arg :: _ ->
      Printf.eprintf "bench json: unknown argument %S\n" arg;
      exit 2
  in
  parse args;
  let out =
    match !out with
    | Some o -> o
    | None ->
      prerr_endline "bench json: --out FILE is required";
      exit 2
  in
  let selected =
    match !app_filter with
    | None -> apps
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun a -> a.App.name = name) apps with
          | Some a -> a
          | None ->
            Printf.eprintf "bench json: unknown application %S\n" name;
            exit 2)
        names
  in
  let sample = !sample and jobs = !jobs in
  let wall_per_invocation app layouts =
    (* one ungated wall-time point per app: the modeled run, best of 3 timed
       passes (machine-dependent by construction).  Not bechamel: its
       live-word stabilization cannot run while other domains are active,
       and this hook executes inside the --jobs worker pool *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (Run.run ~sample ~config ~layouts app);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1e9
  in
  let collect jobs =
    let t0 = Unix.gettimeofday () in
    let m =
      Bench_json.collect ~jobs ~sample ~wall_ns_inter:wall_per_invocation
        ~progress:(fun name -> Printf.eprintf "bench json: %s...\n%!" name)
        ~config selected
    in
    (m, Unix.gettimeofday () -. t0)
  in
  let manifest, par_wall = collect jobs in
  let suite_metrics =
    let m ~name ~value ~unit_ =
      { Bench_schema.app = "_suite"; name; value; unit_; gated = false }
    in
    if jobs <= 1 then [ m ~name:"suite_wall_s.seq" ~value:par_wall ~unit_:"s" ]
    else begin
      Printf.eprintf "bench json: re-collecting at --jobs 1 (determinism check)...\n%!";
      let seq_manifest, seq_wall = collect 1 in
      if not (Bench_json.equal_gated manifest seq_manifest) then begin
        Printf.eprintf
          "bench json: gated metrics differ between --jobs %d and --jobs 1\n" jobs;
        exit 1
      end;
      Printf.eprintf "bench json: gated metrics identical across jobs settings\n%!";
      [
        m ~name:"suite_wall_s.seq" ~value:seq_wall ~unit_:"s";
        m ~name:(Printf.sprintf "suite_wall_s.jobs%d" jobs) ~value:par_wall ~unit_:"s";
        m ~name:"suite_speedup" ~value:(seq_wall /. Float.max 1e-9 par_wall) ~unit_:"x";
      ]
    end
  in
  let traffic_metrics, traffic_result, traffic_wall =
    (* ungated traffic-engine numbers: the batched multi-tenant replay
       (Flo_traffic) against the per-element simulate loop it replaces.
       All wall-clock, so never gated; the modeled request count rides
       along for scale context. *)
    Printf.eprintf "bench json: traffic engine...\n%!";
    let params =
      (* 8 windows so the ride-along SLO metrics see real multi-window
         behavior instead of the degenerate single-window verdict *)
      { (Flo_traffic.Engine.default_params ~mix:selected) with
        Flo_traffic.Engine.sample; windows = 8 }
    in
    let t0 = Unix.gettimeofday () in
    let result = Flo_traffic.Engine.simulate ~jobs ~config params in
    let tenant_wall = Unix.gettimeofday () -. t0 in
    (* loop baseline: modeled requests per wall second of one closed-loop
       per-element run of the head app (what a tenant job costs without
       kernel batching) *)
    let head = List.hd selected in
    let layouts = Experiment.inter_layouts config head in
    let l0 = Unix.gettimeofday () in
    let r = Run.run ~sample ~config ~layouts head in
    let loop_wall = Unix.gettimeofday () -. l0 in
    let loop_rps = float_of_int r.Run.block_requests /. Float.max 1e-9 loop_wall in
    let modeled_rps = result.Flo_traffic.Engine.modeled_rps in
    let m ~name ~value ~unit_ =
      { Bench_schema.app = "_traffic"; name; value; unit_; gated = false }
    in
    let slo_metrics =
      (* fleet SLO health of the same run: deterministic and jobs-invariant,
         but trajectory data (it moves whenever the modeled engine is meant
         to improve), so ungated like the rest of the traffic numbers *)
      match Flo_obs.Slo.parse "p99<100ms@99" with
      | Error _ -> []
      | Ok spec ->
        let e = Flo_traffic.Slo_eval.evaluate spec result in
        let v = e.Flo_traffic.Slo_eval.fleet.Flo_traffic.Slo_eval.verdict in
        let s ~name ~value ~unit_ =
          { Bench_schema.app = "_slo"; name; value; unit_; gated = false }
        in
        [
          s ~name:"fleet_burn_rate" ~value:v.Flo_obs.Slo.burn_rate ~unit_:"x";
          s ~name:"fleet_budget_remaining" ~value:v.Flo_obs.Slo.budget_remaining
            ~unit_:"frac";
          s ~name:"fleet_compliance" ~value:v.Flo_obs.Slo.compliance ~unit_:"frac";
        ]
    in
    [
      m ~name:"modeled_requests"
        ~value:(float_of_int result.Flo_traffic.Engine.total_requests)
        ~unit_:"req";
      m ~name:"modeled_rps" ~value:modeled_rps ~unit_:"req/s";
      m ~name:"tenant_wall_s" ~value:tenant_wall ~unit_:"s";
      m ~name:"loop_rps" ~value:loop_rps ~unit_:"req/s";
      m ~name:"speedup_vs_loop" ~value:(modeled_rps /. Float.max 1e-9 loop_rps)
        ~unit_:"x";
    ]
    @ slo_metrics,
    result, tenant_wall
  in
  let trace_metrics =
    (* ungated sampled-tracing numbers: re-run the same traffic params with
       tracing on and report what the sampler kept plus the wall-clock cost
       of the observation sweep.  The modeled numbers of the traced run must
       be byte-identical to the untraced run above — tracing only ever adds
       exemplars, never counts — so the verdict lines are compared here and
       any divergence aborts the bench. *)
    Printf.eprintf "bench json: traffic engine (traced)...\n%!";
    let params =
      (* 8 windows so the ride-along SLO metrics see real multi-window
         behavior instead of the degenerate single-window verdict *)
      { (Flo_traffic.Engine.default_params ~mix:selected) with
        Flo_traffic.Engine.sample; windows = 8;
        trace =
          Some
            { Flo_traffic.Tracer.default with
              Flo_traffic.Tracer.sample_rate = 4096 } }
    in
    let t0 = Unix.gettimeofday () in
    let traced = Flo_traffic.Engine.simulate ~jobs ~config params in
    let traced_wall = Unix.gettimeofday () -. t0 in
    let untraced_line = Flo_traffic.Traffic_report.verdict_line traffic_result in
    let traced_line = Flo_traffic.Traffic_report.verdict_line traced in
    if untraced_line <> traced_line then begin
      Printf.eprintf
        "bench json: tracing changed modeled numbers:\n  off: %s\n  on:  %s\n"
        untraced_line traced_line;
      exit 2
    end;
    Printf.eprintf "bench json: traced modeled numbers identical to untraced\n%!";
    let traces = traced.Flo_traffic.Engine.traces in
    let represented =
      List.fold_left (fun a (t : Flo_obs.Trace.t) -> a + t.Flo_obs.Trace.count) 0
        traces
    in
    let spans =
      List.fold_left (fun a t -> a + Flo_obs.Trace.span_count t) 0 traces
    in
    let m ~name ~value ~unit_ =
      { Bench_schema.app = "_trace"; name; value; unit_; gated = false }
    in
    [
      m ~name:"sampled_traces" ~value:(float_of_int (List.length traces))
        ~unit_:"trace";
      m ~name:"sampled_requests" ~value:(float_of_int represented) ~unit_:"req";
      m ~name:"sampled_spans" ~value:(float_of_int spans) ~unit_:"span";
      m ~name:"traced_wall_s" ~value:traced_wall ~unit_:"s";
      m ~name:"trace_overhead"
        ~value:(traced_wall /. Float.max 1e-9 traffic_wall) ~unit_:"x";
    ]
  in
  let sim_metrics =
    (* ungated simulation-kernel numbers: closed-loop block-request
       throughput (client buffers + hierarchy + disks, streams
       pregenerated) of caches on the Flat_lru kernel against the retained
       closure reference (Lru.reference), both through the one Hierarchy
       access body.  Both kernels must agree on the modeled elapsed
       time — the golden suite pins full result identity — so any
       divergence aborts the bench. *)
    Printf.eprintf "bench json: simulation kernel...\n%!";
    let timings =
      List.concat_map
        (fun app ->
          List.map
            (fun layouts ->
              let p = Kernel_bench.prepare ~config ~layouts ~sample app in
              let fast = Kernel_bench.time Kernel_bench.Fast p in
              let refr = Kernel_bench.time Kernel_bench.Reference p in
              if fast.Kernel_bench.elapsed_us <> refr.Kernel_bench.elapsed_us
              then begin
                Printf.eprintf
                  "bench json: sim kernels disagree on %s: fast %.17g us, ref %.17g us\n"
                  app.App.name fast.Kernel_bench.elapsed_us
                  refr.Kernel_bench.elapsed_us;
                exit 2
              end;
              (fast, refr))
            [ Experiment.default_layouts app; Experiment.inter_layouts config app ])
        selected
    in
    let fast_wall =
      List.fold_left (fun a (f, _) -> a +. f.Kernel_bench.wall_s) 0. timings
    in
    let ref_wall =
      List.fold_left (fun a (_, r) -> a +. r.Kernel_bench.wall_s) 0. timings
    in
    let requests =
      List.fold_left (fun a (f, _) -> a + f.Kernel_bench.block_requests) 0 timings
    in
    Printf.eprintf "bench json: sim kernel modeled numbers identical to reference\n%!";
    let m ~name ~value ~unit_ =
      { Bench_schema.app = "_sim"; name; value; unit_; gated = false }
    in
    [
      m ~name:"blocks_per_sec"
        ~value:(float_of_int requests /. Float.max 1e-9 fast_wall)
        ~unit_:"req/s";
      m ~name:"suite_wall_s" ~value:fast_wall ~unit_:"s";
      m ~name:"reference_blocks_per_sec"
        ~value:(float_of_int requests /. Float.max 1e-9 ref_wall)
        ~unit_:"req/s";
      m ~name:"speedup_vs_reference"
        ~value:(ref_wall /. Float.max 1e-9 fast_wall)
        ~unit_:"x";
    ]
  in
  let overload_metrics =
    (* ungated overload-control numbers: a pinned read-error storm at ~8x
       offered load with fail-fast shedding on.  Goodput and the accepted
       cohort's p99 are the headline graceful-degradation trajectory; the
       shed fraction gives them scale.  Long windows relative to the job
       quantum (15 modeled s vs ~1.5 modeled s per job at sample 1024), so
       the admission controller works at whole-job granularity without the
       quantum dominating. *)
    Printf.eprintf "bench json: overload control...\n%!";
    let faults =
      match Flo_faults.Fault_plan.of_string "read-error:rate=0.05" with
      | Ok f -> f
      | Error msg ->
        Printf.eprintf "bench json: internal error: bad fault spec: %s\n" msg;
        exit 2
    in
    let params =
      { (Flo_traffic.Engine.default_params ~mix:selected) with
        Flo_traffic.Engine.tenants = 16; duration_s = 60.; rate = 2.64;
        windows = 4; sample = 1024; faults;
        overload = Some Flo_traffic.Overload.default }
    in
    let t0 = Unix.gettimeofday () in
    let result = Flo_traffic.Engine.simulate ~jobs ~config params in
    let overload_wall = Unix.gettimeofday () -. t0 in
    let ol =
      match result.Flo_traffic.Engine.overload with
      | Some ol -> ol
      | None ->
        Printf.eprintf "bench json: internal error: overload run lost its stats\n";
        exit 2
    in
    let m ~name ~value ~unit_ =
      { Bench_schema.app = "_overload"; name; value; unit_; gated = false }
    in
    [
      m ~name:"goodput_rps" ~value:ol.Flo_traffic.Engine.ol_goodput_rps
        ~unit_:"req/s";
      m ~name:"shed_fraction" ~value:ol.Flo_traffic.Engine.ol_shed_fraction
        ~unit_:"frac";
      m ~name:"p99_accepted_us" ~value:result.Flo_traffic.Engine.agg_p99_us
        ~unit_:"us";
      m ~name:"overload_wall_s" ~value:overload_wall ~unit_:"s";
    ]
  in
  let manifest =
    { manifest with
      Bench_schema.metrics =
        manifest.Bench_schema.metrics @ suite_metrics @ traffic_metrics
        @ trace_metrics @ sim_metrics @ overload_metrics }
  in
  (match Bench_schema.validate manifest with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "bench json: internal error: invalid manifest: %s\n" msg;
    exit 2);
  Bench_schema.save out manifest;
  Printf.printf "wrote %s (%d metrics over %d apps, schema %s v%d)\n" out
    (List.length manifest.Bench_schema.metrics)
    (List.length manifest.Bench_schema.apps)
    Bench_schema.schema_name Bench_schema.schema_version

(* ---- history: per-commit trend rows + static trend page ---------------------------------- *)

(* `bench -- history --out FILE --commit ID --manifest MANIFEST [--page P]`
   distills one bench manifest into trend points, upserts them as the row
   for ID in the append-only history, and regenerates the self-contained
   HTML/SVG trend page.  Re-running with the same commit and manifest is
   idempotent: the row is replaced in place, so history and page bytes are
   unchanged. *)
let history_mode args =
  let out = ref None and commit = ref None and manifest = ref None in
  let page = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | "--commit" :: v :: rest ->
      commit := Some v;
      parse rest
    | "--manifest" :: v :: rest ->
      manifest := Some v;
      parse rest
    | "--page" :: v :: rest ->
      page := Some v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "bench history: unknown argument %S\n" arg;
      exit 2
  in
  parse args;
  let required name = function
    | Some v -> v
    | None ->
      Printf.eprintf "bench history: %s is required\n" name;
      exit 2
  in
  let out = required "--out FILE" !out in
  let commit = required "--commit ID" !commit in
  let manifest_path = required "--manifest MANIFEST" !manifest in
  if not (Bench_history.valid_commit commit) then begin
    Printf.eprintf
      "bench history: bad --commit %S (want 1-64 chars of [A-Za-z0-9._-])\n"
      commit;
    exit 2
  end;
  let page =
    match !page with
    | Some p -> p
    | None ->
      (if Filename.check_suffix out ".json" then Filename.chop_suffix out ".json"
       else out)
      ^ ".html"
  in
  let manifest =
    match Bench_schema.load manifest_path with
    | Ok m -> m
    | Error msg ->
      Printf.eprintf "bench history: cannot load manifest: %s\n" msg;
      exit 2
  in
  let points = Bench_history.metrics_of_manifest manifest in
  if points = [] then begin
    Printf.eprintf "bench history: manifest %s yields no trend points\n"
      manifest_path;
    exit 2
  end;
  let history =
    if Sys.file_exists out then
      match Bench_history.load out with
      | Ok h -> h
      | Error msg ->
        Printf.eprintf "bench history: corrupt history: %s\n" msg;
        exit 2
    else Bench_history.empty
  in
  let history =
    match Bench_history.upsert history ~commit points with
    | Ok h -> h
    | Error msg ->
      Printf.eprintf "bench history: %s\n" msg;
      exit 2
  in
  Bench_history.save out history;
  (* page gets the same side-file + rename discipline as the history *)
  let tmp = page ^ ".tmp" in
  let oc = open_out tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (Bench_history.render_page history))
   with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp page;
  Printf.printf "recorded commit %s (%d points) -> %s (%d rows), trend page %s\n"
    commit (List.length points) out
    (List.length history.Bench_history.rows)
    page

(* ---- driver ------------------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1); ("table2", table2); ("table3", table3); ("fig7a", fig7a);
    ("fig7b", fig7b); ("fig7c", fig7c); ("fig7d", fig7d); ("fig7e", fig7e);
    ("fig7f", fig7f); ("fig7g", fig7g); ("fig7h", fig7h);
    ("ablation-weights", ablation_weights); ("ablation-pattern", ablation_pattern);
    ("ablation-template", ablation_template); ("amortization", amortization);
    ("prefetch", prefetch); ("latency", latency); ("analysis", analysis);
    ("compile-bench", compile_bench);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  match requested with
  | "json" :: rest -> json_mode rest
  | "history" :: rest -> history_mode rest
  | _ ->
  let chosen =
    if requested = [] then sections
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown section %S (known: %s)\n" name
              (String.concat ", " (List.map fst sections));
            None)
        requested
  in
  List.iter
    (fun (name, f) ->
      let t0 = Sys.time () in
      f ();
      Printf.printf "[%s finished in %.1f s cpu]\n\n%!" name (Sys.time () -. t0))
    chosen

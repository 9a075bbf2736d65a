(* The benchmark driver: set a workload up, run its ops for a time budget
   (untraced), or run them once untraced and once split into layer spans
   (traced), and turn what it measured into named metrics. *)

module W = Workload

let workloads =
  [
    ("suite_sweep", Sweeps.suite_sweep);
    ("fidelity_sweep", Sweeps.fidelity_sweep);
    ("traffic_fleet", Traffic_ops.traffic_fleet);
    ("overload_storm", Traffic_ops.overload_storm);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("alloc_mb_per_op", "MB/op");
    ("ok_frac", "frac");
  ]

let per_layer =
  [
    ("optimizer.busy_s", "s/op");
    ("optimizer.calls", "count/op");
    ("tracegen.busy_s", "s/op");
    ("tracegen.elems_per_s", "1/s");
    ("tracegen.alloc_mb", "MB/op");
    ("hierarchy.busy_s", "s/op");
    ("hierarchy.blocks_per_s", "1/s");
    ("analyzer.busy_s", "s/op");
    ("analyzer.events_per_s", "1/s");
    ("analyzer.alloc_mb", "MB/op");
    ("predict.busy_s", "s/op");
    ("predict.alloc_mb", "MB/op");
    ("fidelity.busy_s", "s/op");
    ("kernel.busy_s", "s/op");
    ("kernel.compiles", "count/op");
    ("kernel.used_frac", "frac");
    ("engine.busy_s", "s/op");
    ("engine.tenants_per_s", "1/s");
    ("engine.alloc_mb", "MB/op");
    ("slo_eval.busy_s", "s/op");
    ("tracer.busy_s", "s/op");
    ("tracer.traces", "count/op");
    ("tracer.spans", "count/op");
    ("report.busy_s", "s/op");
    ("report.bytes", "bytes/op");
    ("uncovered.busy_s", "s/op");
    ("span_coverage", "frac");
    ("gc.minor_collections", "count/op");
    ("gc.major_collections", "count/op");
    ("trace_overhead", "x");
  ]

type budget = Seconds of float | Passes of int

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in [end_to_end] or [per_layer] order *)
  lines : string list;  (** human-readable lines printed before the JSON *)
}

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* Repeated set-ups: at least [min_setups], then (at the full size) more
   until a second of set-up has been spent, at most [max_setups].  Each is
   followed by a probe and scaled by it; [setup_s] is the median of the
   scaled times.  The first set-up is timed from process start.  The last
   instance is run; every instance's warm-up op counts as attempted. *)
let min_setups = 3
let max_setups = 25

type setups = {
  scaled : float list;  (** each set-up's wall seconds, scaled by its probe *)
  failed_warm_ups : int;
}

let set_up ~started ~size ~seed f =
  let budget_s = match size with W.Full -> 1. | W.Tiny -> 0. in
  let rec go k setups =
    let t0 = if k = 0 then started else Meter.now () in
    let w = f ~size ~seed in
    let dt = Meter.now () -. t0 in
    let setups =
      { scaled = Meter.scaled ~probe_s:(Meter.probe ()) dt :: setups.scaled;
        failed_warm_ups = setups.failed_warm_ups + w.W.setup_failed }
    in
    if k + 1 >= max_setups || (k + 1 >= min_setups && Meter.now () -. started >= budget_s)
    then (w, setups)
    else go (k + 1) setups
  in
  go 0 { scaled = []; failed_warm_ups = 0 }

type tally = {
  mutable ops : int;
  mutable failed_ops : int;
  op_times : float list array;  (** per op of the pass: its wall seconds, one per pass *)
  mutable probes : float list;  (** the probe after each pass, in the same order *)
  mutable passes : int;
}

let tally (w : W.t) =
  { ops = 0; failed_ops = 0; op_times = Array.make (Array.length w.W.pass) []; probes = [];
    passes = 0 }

(* Whole passes until the budget is spent, so every run measures the same
   mix of ops.  With [probe], the host probe runs after each pass; the wall
   time returned leaves the probes out. *)
let run_passes ~probe budget tally one_op (w : W.t) =
  let t0 = Meter.now () in
  let probe_s = ref 0. in
  let continue () =
    match budget with
    | Seconds s -> tally.passes = 0 || Meter.now () -. t0 < s
    | Passes n -> tally.passes < n
  in
  while continue () do
    Array.iteri
      (fun i op ->
        let s = Meter.now () in
        let ok = one_op (tally.passes * Array.length w.W.pass + i) op in
        tally.op_times.(i) <- (Meter.now () -. s) :: tally.op_times.(i);
        tally.ops <- tally.ops + 1;
        if not ok then tally.failed_ops <- tally.failed_ops + 1)
      w.W.pass;
    tally.passes <- tally.passes + 1;
    if probe then begin
      let p = Meter.probe () in
      tally.probes <- p :: tally.probes;
      probe_s := !probe_s +. p
    end
  done;
  Meter.now () -. t0 -. !probe_s

let untraced_op (w : W.t) jobs _ (op : W.op) =
  W.check_outcome w.W.expected op.W.key (op.W.run ~jobs)

let per_op n x = if n > 0 then x /. float_of_int n else 0.
let rate count busy = if busy > 0. then count /. busy else 0.

(* The percentile of the pass's op times that [op_tail_ms] reports: the
   second slowest of suite_sweep's 32 ops and of fidelity_sweep's 16, the
   heaviest of overload_storm's 5 load points, traffic_fleet's one op. *)
let tail_pct = 90

let header (w : W.t) setups =
  Printf.sprintf "flobench %s (setup median of %d)" w.W.size_line (List.length setups.scaled)

let measure_untraced ~jobs ~budget (w : W.t) =
  let t = tally w in
  Meter.settle ();
  let a0 = Meter.alloc_words () in
  let wall = run_passes ~probe:true budget t (untraced_op w jobs) w in
  let alloc = Meter.alloc_words () -. a0 in
  (t, wall, alloc)

let run ?(started = Meter.now ()) ?jobs ?spans_out ~workload ~seed ~size ~budget ~trace () =
  let setup =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let w, setups = set_up ~started ~size ~seed setup in
  let jobs = Option.value jobs ~default:w.W.jobs in
  if not trace then begin
    let t, wall, alloc = measure_untraced ~jobs ~budget w in
    let passed = t.ops - t.failed_ops in
    let attempted = t.ops + List.length setups.scaled in
    let failed = t.failed_ops + setups.failed_warm_ups in
    (* An op's time is the median over the passes of its wall time, each
       scaled by the probe that followed its pass. *)
    let op_ms =
      Array.to_list
        (Array.map
           (fun ts ->
             1000. *. Meter.median (List.map2 (fun x p -> Meter.scaled ~probe_s:p x) ts t.probes))
           t.op_times)
    in
    let pass_s = List.fold_left ( +. ) 0. op_ms /. 1000. in
    let metrics =
      [
        ("setup_s", Meter.median setups.scaled);
        ( "ops_per_s",
          float_of_int passed /. float_of_int t.ops
          *. float_of_int (Array.length w.W.pass)
          /. pass_s );
        ("op_p50_ms", Meter.percentile 50 op_ms);
        ("op_tail_ms", Meter.percentile tail_pct op_ms);
        ("peak_rss_mb", Meter.peak_rss_mb ());
        ("alloc_mb_per_op", per_op t.ops (Meter.mb_of_words alloc));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
      ]
    in
    let lines =
      [
        header w setups;
        Printf.sprintf "%d ops in %d passes over %.3f s at jobs %d (%.4g ops/s unscaled); %d \
           failed checks"
          t.ops t.passes wall jobs (float_of_int passed /. wall) failed;
        Printf.sprintf
          "probe median %.1f ms (nominal %.1f ms); an op's time is its scaled median over the \
           passes; op_tail_ms is p%d of the pass's %d ops"
          (1000. *. Meter.median t.probes) (1000. *. Meter.probe_nominal_s) tail_pct
          (Array.length w.W.pass);
      ]
    in
    { attempted; failed; metrics; lines }
  end
  else begin
    (* untraced third of the budget, then the same passes traced *)
    let budget_u = match budget with Seconds s -> Seconds (s /. 3.) | b -> b in
    let g0 = Meter.gc_counts () in
    let tu, wall_u, _ = measure_untraced ~jobs ~budget:budget_u w in
    let g1 = Meter.gc_counts () in
    let sp = Spans.create () in
    let tt = tally w in
    let traced_op i (op : W.op) =
      W.check_outcome w.W.expected op.W.traced_key (Spans.op sp i (fun () -> op.W.traced sp))
    in
    ignore (run_passes ~probe:false (Passes tu.passes) tt traced_op w);
    let n = tt.ops in
    let wall_t = Spans.traced_wall sp in
    let busy l = Spans.busy_s sp l in
    let mb l = per_op n (Meter.mb_of_words (Spans.alloc_words sp l)) in
    let c name = Spans.counter sp name in
    let rows = Spans.rows sp in
    let metrics =
      [
        ("optimizer.busy_s", per_op n (busy "optimizer"));
        ("optimizer.calls", per_op n (c "optimizer.calls"));
        ("tracegen.busy_s", per_op n (busy "tracegen"));
        ("tracegen.elems_per_s", rate (c "tracegen.elems") (busy "tracegen"));
        ("tracegen.alloc_mb", mb "tracegen");
        ("hierarchy.busy_s", per_op n (busy "hierarchy"));
        ("hierarchy.blocks_per_s", rate (c "hierarchy.blocks") (busy "hierarchy"));
        ("analyzer.busy_s", per_op n (busy "analyzer"));
        ("analyzer.events_per_s", rate (c "analyzer.events") (busy "analyzer"));
        ("analyzer.alloc_mb", mb "analyzer");
        ("predict.busy_s", per_op n (busy "predict"));
        ("predict.alloc_mb", mb "predict");
        ("fidelity.busy_s", per_op n (busy "fidelity"));
        ("kernel.busy_s", per_op n (busy "kernel"));
        ("kernel.compiles", per_op n (c "kernel.compiles"));
        ("kernel.used_frac", rate (c "kernel.used") (c "kernel.compiles"));
        ("engine.busy_s", per_op n (busy "engine"));
        ("engine.tenants_per_s", rate (c "engine.tenants") (busy "engine"));
        ("engine.alloc_mb", mb "engine");
        ("slo_eval.busy_s", per_op n (busy "slo_eval"));
        ("tracer.busy_s", per_op n (busy "tracer"));
        ("tracer.traces", per_op n (c "tracer.traces"));
        ("tracer.spans", per_op n (c "tracer.spans"));
        ("report.busy_s", per_op n (busy "report"));
        ("report.bytes", per_op n (c "report.bytes"));
        ("uncovered.busy_s", per_op n (busy "uncovered"));
        ("span_coverage", if wall_t > 0. then 1. -. (busy "uncovered" /. wall_t) else 0.);
        ("gc.minor_collections", per_op tu.ops (float_of_int (g1.Meter.minor - g0.Meter.minor)));
        ("gc.major_collections", per_op tu.ops (float_of_int (g1.Meter.major - g0.Meter.major)));
        ("trace_overhead", if wall_u > 0. then wall_t /. wall_u else 0.);
      ]
    in
    let table =
      Printf.sprintf "%-18s %12s %8s %12s" "layer (self)" "s/op" "share" "MB/op"
      :: List.map
           (fun (r : Spans.row) ->
             Printf.sprintf "%-18s %12.6f %7.2f%% %12.3f"
               (r.Spans.layer ^ if r.Spans.is_derived then " [derived]" else "")
               (per_op n r.Spans.self_s)
               (if wall_t > 0. then 100. *. r.Spans.self_s /. wall_t else 0.)
               (per_op n (Meter.mb_of_words r.Spans.self_alloc_words)))
           rows
    in
    let attempted = tu.ops + n + List.length setups.scaled in
    let failed = tu.failed_ops + tt.failed_ops + setups.failed_warm_ups in
    Option.iter (Spans.write_jsonl sp) spans_out;
    let lines =
      header w setups
      :: Printf.sprintf
           "traced run: %d ops untraced in %.3f s, the same %d traced in %.3f s at jobs %d; \
            %d failed checks"
           tu.ops wall_u n wall_t jobs failed
      :: table
    in
    { attempted; failed; metrics; lines }
  end

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let to_json r =
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) (unit_of name))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

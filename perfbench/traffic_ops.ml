(* The two multi-tenant traffic workloads, both on a jobs-2 domain pool.

   traffic_fleet: each op is one plain-path [Engine.simulate] (no faults,
   overload control or tracing) of a 10k-tenant fleet over 8 windows,
   then [Slo_eval.evaluate] and both report summaries.  The load keeps
   every shard's congestion multiplier below 2, and the SLO objective sits
   near the fleet's per-window p99, so the verdict is neither saturated
   nor trivially met.

   overload_storm: each op is one offered-load point of a sweep under a
   read-error storm with fail-fast admission control, a circuit breaker
   and modeled request tracing at 1 in 4096, then the SLO evaluation of
   the accepted cohort and the verdict lines.  The load points run from
   no shedding to most jobs shed.

   The seed is [params.seed]: it changes every output, so digests are
   pinned per seed. *)

open Flo_traffic
module W = Workload

let jobs = 2

let mix = function
  | W.Full -> Flo_workloads.Suite.all
  | W.Tiny -> List.map Flo_workloads.Suite.find Sweeps.tiny_apps

let slo spec =
  match Flo_obs.Slo.parse spec with
  | Ok s -> s
  | Error msg -> invalid_arg ("Traffic_ops.slo: " ^ msg)

let fleet_slo = "p99<9800us@99"

let fleet_params ~size ~seed =
  {
    (Engine.default_params ~mix:(mix size)) with
    Engine.tenants = (match size with W.Full -> 10_000 | W.Tiny -> 200);
    seed;
    duration_s = 1e5;
    rate = 4e-5;
    windows = 8;
    sample = 8;
  }

let storm_slo = "p99<15ms@99"
let storm_loads = function W.Full -> [ 1; 2; 4; 8; 16 ] | W.Tiny -> [ 1; 16 ]

let storm_overload =
  let breaker =
    match Flo_faults.Breaker.of_string "open=0.04,close=0.02" with
    | Ok b -> b
    | Error msg -> invalid_arg msg
  in
  { Overload.default with Overload.breaker = Some breaker }

let storm_faults =
  match Flo_faults.Fault_plan.of_string "read-error:rate=0.05" with
  | Ok f -> f
  | Error msg -> invalid_arg msg

let storm_rate = 3.35e-4

let storm_params ~size ~seed ~load =
  {
    (Engine.default_params ~mix:(mix size)) with
    Engine.tenants = (match size with W.Full -> 2000 | W.Tiny -> 100);
    seed;
    duration_s = 600.;
    rate = storm_rate *. float_of_int load;
    windows = 8;
    sample = 1024;
    faults = storm_faults;
    overload = Some storm_overload;
    trace = Some { Tracer.default with Tracer.sample_rate = 4096 };
  }

(* The kernel set [Engine.simulate] compiles, timed on its own: both
   modes of every rank (plus the retry-suppressed variants when the
   admission controller can reach them), fanned over the same pool. *)
let compile_set ~profile (p : Engine.params) =
  let plans =
    match p.Engine.overload with
    | Some o
      when o.Overload.shed <> None
           && (not (Flo_faults.Fault_plan.is_empty p.Engine.faults))
           && p.Engine.faults.Flo_faults.Fault_plan.retry.Flo_faults.Retry.max_retries > 0 ->
      let retry = p.Engine.faults.Flo_faults.Fault_plan.retry in
      [ p.Engine.faults;
        { p.Engine.faults with
          Flo_faults.Fault_plan.retry = { retry with Flo_faults.Retry.max_retries = 0 } } ]
    | _ -> [ p.Engine.faults ]
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun faults ->
           List.concat_map
             (fun mode -> List.map (fun app -> (faults, mode, app)) p.Engine.mix)
             [ Kernel.Default; Kernel.Inter ])
         plans)
  in
  Flo_engine.Parallel.map ~jobs
    (fun (faults, mode, app) ->
      Kernel.compile ~sample:p.Engine.sample ~faults ~profile ~config:W.config ~mode app)
    tasks
  |> Array.length

(* Kernels whose (rank, mode) served at least one job.  Under overload
   control the normal and retry-suppressed variants count separately. *)
let used_kernels (r : Engine.result) =
  let used = Hashtbl.create 64 in
  let mark variant rank (t : Engine.tenant_stats) =
    Hashtbl.replace used (variant, rank, t.Engine.optimized) ()
  in
  (match r.Engine.overload with
   | None ->
     Array.iter
       (fun (t : Engine.tenant_stats) ->
         Array.iteri (fun rank n -> if n > 0 then mark Overload.Normal rank t) t.Engine.rank_jobs)
       r.Engine.tenants_stats
   | Some ol ->
     Array.iteri
       (fun tenant windows ->
         let t = r.Engine.tenants_stats.(tenant) in
         Array.iter
           (Array.iteri (fun rank segs ->
                List.iter
                  (fun (s : Overload.seg) ->
                    if s.Overload.sg_jobs > 0 then mark s.Overload.sg_variant rank t)
                  segs))
           windows)
       ol.Engine.ol_tenant_segs);
  Hashtbl.length used

let report_lines (r : Engine.result) e =
  let ol =
    match r.Engine.overload with
    | Some ol -> [ Traffic_report.overload_line r ol ]
    | None -> []
  in
  [ Traffic_report.verdict_line r ] @ ol @ [ Slo_report.verdict_line r e ]

let digest lines = String.concat " | " lines

let fleet_op ~size ~seed =
  let p = fleet_params ~size ~seed in
  let spec = slo fleet_slo in
  let key = Printf.sprintf "%sseed=%d" (W.key_prefix size) seed in
  let run ~jobs =
    let r = Engine.simulate ~jobs ~config:W.config p in
    let e = Slo_eval.evaluate spec r in
    let rendered = Traffic_report.summary r ^ Slo_report.summary r e in
    ignore (Sys.opaque_identity rendered);
    Ok (digest (report_lines r e))
  in
  let traced sp =
    let compiles, kid = Spans.span sp "kernel" (fun () -> compile_set ~profile:false p) in
    let r, eid = Spans.span sp "engine" (fun () -> Engine.simulate ~jobs ~config:W.config p) in
    Spans.derived sp ~parent:eid "engine.compile" ~dur_s:(Spans.duration_of sp kid)
      ~alloc_words:(Spans.alloc_of sp kid);
    Spans.count sp "kernel.compiles" (float_of_int compiles);
    Spans.count sp "kernel.used" (float_of_int (used_kernels r));
    Spans.count sp "engine.tenants" (float_of_int p.Engine.tenants);
    let e = Spans.with_span sp "slo_eval" (fun () -> Slo_eval.evaluate spec r) in
    let rendered, lines =
      Spans.with_span sp "report" (fun () ->
          (Traffic_report.summary r ^ Slo_report.summary r e, report_lines r e))
    in
    Spans.count sp "report.bytes" (float_of_int (String.length rendered));
    Ok (digest lines)
  in
  { W.key; traced_key = key; run; traced }

let storm_op ~size ~seed ~load =
  let p = storm_params ~size ~seed ~load in
  let spec = slo storm_slo in
  let key =
    Printf.sprintf "%sseed=%d/load=%d" (W.key_prefix size) seed load
  in
  let finish r lines =
    (* every offered request is either admitted or shed *)
    match r.Engine.overload with
    | Some ol
      when ol.Engine.ol_admitted_requests + ol.Engine.ol_shed_requests
           = ol.Engine.ol_offered_requests ->
      Ok (digest lines)
    | _ -> Error (key ^ ": overload accounting does not balance")
  in
  let run ~jobs =
    let r = Engine.simulate ~jobs ~config:W.config p in
    let e = Slo_eval.evaluate spec r in
    finish r (report_lines r e)
  in
  (* The modeled tracer has no seam of its own: the traced op runs the same
     point untraced as well, and the tracer's time is the difference. *)
  let traced sp =
    let untraced = { p with Engine.trace = None } in
    let compiles, kid = Spans.span sp "kernel" (fun () -> compile_set ~profile:false untraced) in
    let r0, eid =
      Spans.span sp "engine" (fun () -> Engine.simulate ~jobs ~config:W.config untraced)
    in
    Spans.derived sp ~parent:eid "engine.compile" ~dur_s:(Spans.duration_of sp kid)
      ~alloc_words:(Spans.alloc_of sp kid);
    let r, tid = Spans.span sp "tracer" (fun () -> Engine.simulate ~jobs ~config:W.config p) in
    Spans.derived sp ~parent:tid "tracer.untraced" ~dur_s:(Spans.duration_of sp eid)
      ~alloc_words:(Spans.alloc_of sp eid);
    Spans.count sp "kernel.compiles" (float_of_int compiles);
    Spans.count sp "kernel.used" (float_of_int (used_kernels r));
    Spans.count sp "engine.tenants" (float_of_int p.Engine.tenants);
    Spans.count sp "tracer.traces" (float_of_int (List.length r.Engine.traces));
    Spans.count sp "tracer.spans"
      (float_of_int
         (List.fold_left (fun a t -> a + Flo_obs.Trace.span_count t) 0 r.Engine.traces));
    let e = Spans.with_span sp "slo_eval" (fun () -> Slo_eval.evaluate spec r) in
    let lines = Spans.with_span sp "report" (fun () -> report_lines r e) in
    Spans.count sp "report.bytes"
      (float_of_int (List.fold_left (fun a l -> a + String.length l) 0 lines));
    if Traffic_report.verdict_line r0 <> Traffic_report.verdict_line r then
      Error (key ^ ": traced verdict differs from untraced")
    else finish r lines
  in
  { W.key; traced_key = key; run; traced }

let storm_ops ~size ~seed = List.map (fun load -> storm_op ~size ~seed ~load) (storm_loads size)

let traffic_fleet ~size ~seed =
  let p = fleet_params ~size ~seed in
  let w =
    {
      W.size_line =
        Printf.sprintf
          "traffic_fleet seed=%d size=%s: %d tenants, %d apps, rate %g/s over %gs, %d windows, \
           sample %d, slo %s, jobs %d"
          seed (W.size_name size) p.Engine.tenants (List.length p.Engine.mix) p.Engine.rate
          p.Engine.duration_s p.Engine.windows p.Engine.sample fleet_slo jobs;
      jobs;
      pass = [| fleet_op ~size ~seed |];
      expected = Expected.parse Expected_data.traffic_fleet;
      setup_failed = 0;
    }
  in
  W.warm_up w w.W.pass.(0);
  w

(* The storm's set-up also checks the modeled tracer against an untraced
   run of the first load point: tracing must not move any verdict. *)
let overload_storm ~size ~seed =
  let p = storm_params ~size ~seed ~load:(List.hd (storm_loads size)) in
  let w =
    {
      W.size_line =
        Printf.sprintf
          "overload_storm seed=%d size=%s: %d tenants, loads %s x rate %g/s over %gs, \
           %d windows, sample %d, %s, %s, trace 1/%d, slo %s, jobs %d"
          seed (W.size_name size) p.Engine.tenants
          (String.concat "," (List.map string_of_int (storm_loads size)))
          storm_rate p.Engine.duration_s p.Engine.windows p.Engine.sample
          (Flo_faults.Fault_plan.to_string storm_faults)
          (Overload.describe storm_overload)
          (match p.Engine.trace with Some t -> t.Tracer.sample_rate | None -> 0)
          storm_slo jobs;
      jobs;
      pass = Array.of_list (storm_ops ~size ~seed);
      expected = Expected.parse Expected_data.overload_storm;
      setup_failed = 0;
    }
  in
  let first = w.W.pass.(0) in
  let out = first.W.run ~jobs:1 in
  let untraced = Engine.simulate ~jobs:1 ~config:W.config { p with Engine.trace = None } in
  let same_verdict =
    match out with
    | Ok d -> String.starts_with ~prefix:(Traffic_report.verdict_line untraced ^ " | ") d
    | Error _ -> false
  in
  if not (W.check_outcome w.W.expected first.W.key out && same_verdict) then
    w.W.setup_failed <- w.W.setup_failed + 1;
  w

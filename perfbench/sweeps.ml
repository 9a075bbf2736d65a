(* The two compile-then-simulate sweeps over the 16-app suite.

   suite_sweep: each op is one (app, layout) at full size — the pass (for
   the inter layout) and one [Run.run] on the fast hierarchy path, the
   path behind Table 2 and Fig. 7(a).

   fidelity_sweep: each op is one app through [Experiment.fidelity] with
   the inter layouts at tolerance 0 — the same hierarchy driven through
   the generic loop by an analyzer sink, then [Predict] and the join.

   Both run at jobs 1; the seed only permutes the op order, so every op's
   output is pinned independently of it. *)

open Flo_engine
open Flo_workloads
module W = Workload

let tiny_apps = [ "cc-ver-1"; "s3asim"; "mgrid" ]

let apps = function
  | W.Full -> Suite.all
  | W.Tiny -> List.map Suite.find tiny_apps

let hex f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let run_digest (r : Run.result) =
  Printf.sprintf "elapsed=%s req=%d l1m=%d l2m=%d" (hex r.Run.elapsed_us)
    r.Run.block_requests r.Run.l1.Flo_storage.Stats.misses
    r.Run.l2.Flo_storage.Stats.misses

let kernel_digest (t : Kernel_bench.timing) =
  Printf.sprintf "elapsed=%s req=%d" (hex t.Kernel_bench.elapsed_us)
    t.Kernel_bench.block_requests

(* Element iterations tracegen walks to build one app's streams: every
   nest once, every thread, every reference. *)
let elems ~sample (app : App.t) =
  let threads = Config.threads W.config in
  List.fold_left
    (fun acc nest ->
      let iters =
        Tracegen.iterations_per_thread ~threads
          ~blocks_per_thread:W.config.Config.blocks_per_thread ~sample nest
      in
      acc
      + Array.fold_left ( + ) 0 iters
        * List.length nest.Flo_poly.Loop_nest.refs)
    0 app.App.program.Flo_poly.Program.nests

type layout = Default | Inter

let layout_name = function Default -> "default" | Inter -> "inter"

let layouts_of app = function
  | Default -> Experiment.default_layouts app
  | Inter ->
    let plan = Experiment.inter_plan W.config app in
    fun id -> Flo_core.Optimizer.layout_of plan id

let suite_op (app : App.t) layout =
  let key = app.App.name ^ "/" ^ layout_name layout in
  let run ~jobs:_ =
    Ok (run_digest (Run.run ~config:W.config ~layouts:(layouts_of app layout) app))
  in
  (* [Run.run] has no public seam between stream generation and replay, so
     the traced op times the same two stages through [Kernel_bench]. *)
  let traced sp =
    let layouts =
      match layout with
      | Default -> layouts_of app Default
      | Inter ->
        Spans.count sp "optimizer.calls" 1.;
        Spans.with_span sp "optimizer" (fun () -> layouts_of app Inter)
    in
    let prepared =
      Spans.with_span sp "tracegen" (fun () ->
          Kernel_bench.prepare ~config:W.config ~layouts app)
    in
    Spans.count sp "tracegen.elems" (float_of_int (elems ~sample:1 app));
    let timing =
      Spans.with_span sp "hierarchy" (fun () ->
          Kernel_bench.time ~reps:1 Kernel_bench.Fast prepared)
    in
    Spans.count sp "hierarchy.blocks" (float_of_int timing.Kernel_bench.block_requests);
    Ok (kernel_digest timing)
  in
  { W.key; traced_key = key ^ "#kernel_bench"; run; traced }

let suite_ops size =
  List.concat_map (fun app -> [ suite_op app Default; suite_op app Inter ]) (apps size)

let fidelity_sample = 8

let fidelity_digest (f : Flo_fidelity.Fidelity.t) (r : Run.result) =
  Printf.sprintf "%s rows=%d shared=%d pairs=%d" (run_digest r)
    (List.length f.Flo_fidelity.Fidelity.rows)
    f.Flo_fidelity.Fidelity.observed_cross_shared
    f.Flo_fidelity.Fidelity.observed_cross_pairs

(* Zero drift at tolerance 0 is the fidelity loop's own invariant. *)
let fidelity_outcome f r =
  let open Flo_fidelity.Fidelity in
  if ok f && max_abs_drift f = 0 && sharing_drift f = 0 then Ok (fidelity_digest f r)
  else Error (Printf.sprintf "%s: fidelity drift %d" f.app (max_abs_drift f))

let fidelity_op (app : App.t) =
  let layouts = layouts_of app Inter in
  let sample = fidelity_sample in
  let run ~jobs:_ =
    let f, r =
      Experiment.fidelity ~tolerance:0. ~sample ~layouts W.config app
    in
    fidelity_outcome f r
  in
  (* One run with a collecting sink (tracegen, then the generic hierarchy
     loop: the first event marks the boundary), then the analyzer fold,
     the model, and the join, each in its own span. *)
  let traced sp =
    let events = ref [] in
    let first = ref None in
    let sink =
      Flo_obs.Sink.callback (fun e ->
          if !first = None then begin
            let t = Meter.now () in
            first := Some (t, Meter.alloc_words ())
          end;
          events := e :: !events)
    in
    let a0 = Meter.alloc_words () in
    let t0 = Meter.now () in
    let r = Run.run ~sample ~sink ~config:W.config ~layouts app in
    let t1 = Meter.now () in
    let a1 = Meter.alloc_words () in
    let tm, am = Option.value !first ~default:(t1, a1) in
    Spans.interval sp "tracegen" ~start:t0 ~stop:tm ~alloc0:a0 ~alloc1:am;
    Spans.interval sp "hierarchy" ~start:tm ~stop:t1 ~alloc0:am ~alloc1:a1;
    Spans.count sp "tracegen.elems" (float_of_int (elems ~sample app));
    Spans.count sp "hierarchy.blocks" (float_of_int r.Run.block_requests);
    let events = List.rev !events in
    Spans.count sp "analyzer.events" (float_of_int (List.length events));
    let observed =
      Spans.with_span sp "analyzer" (fun () -> Flo_analysis.Analyzer.of_events events)
    in
    let predict =
      Spans.with_span sp "predict" (fun () ->
          Flo_fidelity.Predict.compute
            ~blocks_per_thread:W.config.Config.blocks_per_thread ~sample
            ~block_elems:W.config.Config.topology.Flo_storage.Topology.block_elems
            ~threads:(Config.threads W.config) ~name:app.App.name ~layouts
            app.App.program)
    in
    let f =
      Spans.with_span sp "fidelity" (fun () ->
          Flo_fidelity.Fidelity.join ~tolerance:0. ~predict ~observed ())
    in
    fidelity_outcome f r
  in
  { W.key = app.App.name; traced_key = app.App.name; run; traced }

let fidelity_ops size = List.map fidelity_op (apps size)

(* The warm-up op is the first in suite order, whatever the seed, so the
   set-up does the same work at every seed. *)
let setup ~name ~ops ~table ~describe ~size ~seed =
  let ops = Array.of_list (ops size) in
  let w =
    {
      W.size_line = Printf.sprintf "%s seed=%d size=%s: %s" name seed (W.size_name size) describe;
      jobs = 1;
      pass = W.shuffle ~seed ops;
      expected = Expected.parse table;
      setup_failed = 0;
    }
  in
  W.warm_up w ops.(0);
  w

let suite_sweep ~size ~seed =
  setup ~name:"suite_sweep" ~ops:suite_ops ~table:Expected_data.suite_sweep
    ~size ~seed
    ~describe:
      (Printf.sprintf "%d apps x {default,inter}, sample 1, closed loop, jobs 1"
         (List.length (apps size)))

let fidelity_sweep ~size ~seed =
  setup ~name:"fidelity_sweep" ~ops:fidelity_ops ~table:Expected_data.fidelity_sweep
    ~size ~seed
    ~describe:
      (Printf.sprintf "%d apps, inter layouts, sample %d, tolerance 0, closed loop, jobs 1"
         (List.length (apps size)) fidelity_sample)

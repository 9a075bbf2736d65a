(* Model-fidelity telemetry: the compiler-side predictions (Predict) joined
   against observed run analytics (Fidelity), and their rendering.

   The headline guarantees pinned here:
   - under matching run parameters the analytical model is EXACT — all 16
     apps under the inter-node layout show zero drift (golden file);
   - a deliberately mis-parameterized model (wrong block size) produces
     nonzero, flagged drift (golden file). *)

open Flo_workloads
open Flo_engine
module F = Flo_fidelity.Fidelity
module P = Flo_fidelity.Predict

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let config = Config.default

let fidelity_of ?tolerance ?predict_block_elems ?sample app =
  fst
    (Experiment.fidelity ?tolerance ?predict_block_elems ?sample
       ~layouts:(Experiment.inter_layouts config app)
       config app)

let read_golden path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_golden path actual =
  (* regenerate with: FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test fidelity -q *)
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None -> Alcotest.(check string) "matches golden file" (read_golden path) actual

(* every app of the suite, inter-node layout, default config: the model must
   reproduce the run exactly — drift 0 everywhere *)
let test_suite_zero_drift_golden () =
  let lines =
    List.map
      (fun app ->
        let fd = fidelity_of app in
        checkb (app.App.name ^ " ok") true (F.ok fd);
        check (app.App.name ^ " max abs drift") 0 (F.max_abs_drift fd);
        Report.fidelity_line fd)
      Suite.all
  in
  check_golden "golden_fidelity_suite.expected"
    (String.concat "\n" lines ^ "\n")

(* predictions made for 32-element blocks against a 64-element-block run:
   every row must drift and be flagged at zero tolerance *)
let test_block_mismatch_golden () =
  let app = Suite.find "cc-ver-1" in
  let fd = fidelity_of ~predict_block_elems:32 app in
  checkb "not ok" false (F.ok fd);
  checkb "has flagged rows" true (F.flagged fd <> []);
  checkb "nonzero drift" true (F.max_abs_drift fd > 0);
  check_golden "golden_fidelity_mismatch.expected" (Report.fidelity_summary fd)

let test_sampled_run_still_exact () =
  let fd = fidelity_of ~sample:8 (Suite.find "wupwise") in
  checkb "ok under sampling" true (F.ok fd);
  check "max abs drift" 0 (F.max_abs_drift fd)

let test_default_layout_also_exact () =
  (* the model is layout-generic: row-major predictions match too *)
  let app = Suite.find "astro" in
  let fd, _ =
    Experiment.fidelity ~layouts:(Experiment.default_layouts app) config app
  in
  checkb "ok" true (F.ok fd);
  check "max abs drift" 0 (F.max_abs_drift fd)

let test_tolerance_masks_drift () =
  let app = Suite.find "cc-ver-1" in
  let strict = fidelity_of ~predict_block_elems:32 app in
  let lax = fidelity_of ~tolerance:0.6 ~predict_block_elems:32 app in
  checkb "strict flags" true (F.flagged strict <> []);
  (* the 32-vs-64 mismatch doubles block counts: 50% relative error < 60% *)
  check "lax flags none" 0 (List.length (F.flagged lax));
  checkb "same drift either way" true
    (F.max_abs_drift strict = F.max_abs_drift lax)

let test_predict_layer_expectations () =
  let app = Suite.find "cc-ver-1" in
  let fd = fidelity_of app in
  let p = fd.F.predict in
  checkb "arrays predicted" true (p.P.arrays <> []);
  List.iter
    (fun (ap : P.array_prediction) ->
      checkb (ap.P.array_name ^ " optimized") true ap.P.optimized;
      checkb (ap.P.array_name ^ " block aligned") true ap.P.block_aligned;
      checkb (ap.P.array_name ^ " has layers") true (ap.P.layers <> []);
      List.iter
        (fun (l : P.layer_expect) ->
          checkb "capacity positive" true (l.P.capacity > 0);
          checkb "sharing positive" true (l.P.threads_sharing > 0);
          check "whole blocks" 0 (l.P.capacity mod p.P.block_elems))
        ap.P.layers)
    p.P.arrays;
  (* Step II claim: the inter-node layout leaves no block with two owners *)
  checkb "single owner" true p.P.single_owner;
  check "cross shared" 0 p.P.cross_shared_blocks

let test_record_publishes_gauges () =
  let fd = fidelity_of (Suite.find "cc-ver-1") in
  let registry = Flo_obs.Metrics.create () in
  F.record fd registry;
  let labels = [ ("app", "cc-ver-1") ] in
  List.iter
    (fun name ->
      match Flo_obs.Metrics.find registry ~labels name with
      | Some (Flo_obs.Metrics.Gauge v) ->
        Alcotest.(check (float 0.)) name 0. v
      | _ -> Alcotest.failf "gauge %s missing" name)
    [
      "fidelity.distinct.max_abs_drift";
      "fidelity.distinct.max_rel_drift";
      "fidelity.sharing.abs_drift";
      "fidelity.flagged_rows";
      "fidelity.layer_violations";
    ]

let test_predict_validates_args () =
  let app = Suite.find "cc-ver-1" in
  let layouts = Experiment.inter_layouts config app in
  Alcotest.check_raises "sample 0"
    (Invalid_argument "Predict.compute: sample < 1") (fun () ->
      ignore
        (P.compute ~sample:0 ~block_elems:64 ~threads:4 ~name:"x" ~layouts
           app.App.program));
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Fidelity.join: negative tolerance") (fun () ->
      let fd = fidelity_of app in
      ignore
        (F.join ~tolerance:(-0.1) ~predict:fd.F.predict
           ~observed:(Flo_analysis.Analyzer.create ()) ()))

(* drift arithmetic on synthetic rows *)
let test_row_drift_arithmetic () =
  let row predicted observed = { F.thread = 0; file = 0; predicted; observed } in
  check "abs" 3 (F.abs_drift (row 10 13));
  Alcotest.(check (float 1e-9)) "rel" 0.3 (F.rel_drift (row 10 13));
  Alcotest.(check (float 0.)) "both zero" 0. (F.rel_drift (row 0 0));
  checkb "zero prediction, nonzero observation" true
    (F.rel_drift (row 0 5) = infinity)

(* flagging is monotone in tolerance: anything flagged at a higher tolerance
   is flagged at every lower one *)
let prop_flagged_monotone =
  QCheck.Test.make ~count:200 ~name:"fidelity flagged monotone in tolerance"
    QCheck.(
      triple
        (small_list (pair (int_bound 50) (int_bound 50)))
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (cells, t1, t2) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let rows =
        List.mapi
          (fun i (p, o) -> { F.thread = i; file = 0; predicted = p; observed = o })
          cells
      in
      let flagged tol =
        List.filter (fun r -> F.rel_drift r > tol) rows
      in
      List.for_all (fun r -> List.memq r (flagged lo)) (flagged hi))

(* -- layout drift watch ---------------------------------------------------- *)

module D = Flo_fidelity.Drift

let base_signal =
  {
    D.miss_l1 = 0.05;
    miss_l2 = 0.02;
    cross_shared = 4;
    sharing = [| [| 0; 2 |]; [| 2; 0 |] |];
    fidelity_rel = 0.;
  }

let shifted_signal =
  { base_signal with D.miss_l1 = 0.2; miss_l2 = 0.09; cross_shared = 11 }

let observe_n d s n =
  let r = ref d in
  for _ = 1 to n do
    r := D.observe !r s
  done;
  !r

let test_drift_quiet_on_identical () =
  let d = observe_n (D.create ~baseline:base_signal ()) base_signal 6 in
  Alcotest.(check int) "windows" 6 (D.windows_seen d);
  checkb "no recommendation" false (D.recommended d);
  checkb "no reasons" true (D.reasons d = []);
  Alcotest.(check (float 0.)) "score zero" 0. (D.last_score d);
  checkb "status says no" true
    (let s = D.status_line d in
     String.length s > 0
     &&
     let rec contains i =
       i + 12 <= String.length s
       && (String.sub s i 12 = "recommend=no" || contains (i + 1))
     in
     contains 0)

let test_drift_flags_after_streak () =
  let d0 = D.create ~baseline:base_signal () in
  let score, reasons = D.score d0 shifted_signal in
  checkb "window scores above enter" true (score >= D.default_config.D.enter);
  checkb "reasons name components" true (reasons <> []);
  let d1 = D.observe d0 shifted_signal in
  checkb "one high window is not enough" false (D.recommended d1);
  let d2 = D.observe d1 shifted_signal in
  checkb "streak of 2 raises" true (D.recommended d2);
  checkb "reasons attached on flip" true (D.reasons d2 <> [])

let test_drift_hysteresis () =
  let on =
    observe_n (D.create ~baseline:base_signal ()) shifted_signal
      D.default_config.D.enter_streak
  in
  checkb "raised" true (D.recommended on);
  let low1 = D.observe on base_signal in
  checkb "one quiet window does not clear" true (D.recommended low1);
  let low2 = D.observe low1 base_signal in
  checkb "streak of 2 clears" false (D.recommended low2);
  checkb "reasons cleared" true (D.reasons low2 = []);
  (* alternating noise never accumulates a streak in either direction *)
  let d = ref (D.create ~baseline:base_signal ()) in
  for _ = 1 to 4 do
    d := D.observe (D.observe !d shifted_signal) base_signal
  done;
  checkb "alternating windows never raise" false (D.recommended !d)

let test_drift_matrix_zero_padding () =
  (* a larger matrix whose extra rows/cols are all zero is the same
     observation — no matrix component fires *)
  let padded =
    {
      base_signal with
      D.sharing = [| [| 0; 2; 0 |]; [| 2; 0; 0 |]; [| 0; 0; 0 |] |];
    }
  in
  let d = D.create ~baseline:base_signal () in
  let score, reasons = D.score d padded in
  Alcotest.(check (float 0.)) "padded matrix scores zero" 0. score;
  checkb "no reasons" true (reasons = []);
  (* genuinely moved sharing mass fires the matrix component *)
  let moved =
    { base_signal with D.sharing = [| [| 0; 0 |]; [| 0; 4 |] |] }
  in
  let _, reasons = D.score d moved in
  checkb "matrix shift named" true
    (List.exists (function D.Matrix_shift _ -> true | _ -> false) reasons)

let test_drift_config_validation () =
  let bad =
    [
      ("exit above enter", { D.default_config with D.exit_ = 0.5 });
      ("negative exit", { D.default_config with D.exit_ = -0.1 });
      ("zero enter streak", { D.default_config with D.enter_streak = 0 });
      ("zero exit streak", { D.default_config with D.exit_streak = 0 });
    ]
  in
  List.iter
    (fun (label, c) ->
      checkb label true (Result.is_error (D.validate_config c));
      checkb (label ^ " raises on create") true
        (match D.create ~config:c ~baseline:base_signal () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    bad;
  checkb "default config valid" true
    (Result.is_ok (D.validate_config D.default_config))

let test_drift_signal_phase_shift () =
  (* the synthetic phase shift: the baseline was captured under the
     optimized layouts; the same program running under default layouts is
     a workload the layouts no longer fit, and must score above enter *)
  let app = Suite.find "mgrid" in
  let baseline =
    Experiment.drift_signal ~layouts:(Experiment.inter_layouts config app)
      config app
  in
  let observed =
    Experiment.drift_signal ~layouts:(Experiment.default_layouts app) config app
  in
  let d = D.create ~baseline () in
  let unshifted, none = D.score d baseline in
  Alcotest.(check (float 0.)) "unshifted window scores zero" 0. unshifted;
  checkb "unshifted has no reasons" true (none = []);
  let shifted, reasons = D.score d observed in
  checkb "shifted window scores above enter" true
    (shifted >= D.default_config.D.enter);
  checkb "shifted names at least one component" true (reasons <> []);
  checkb "reason lines render" true
    (List.for_all (fun r -> String.length (D.reason_to_string r) > 0) reasons)

(* -- Predict against the per-element oracle -------------------------------- *)

(* A random small nest: depth 2-3 with nonzero lower bounds, 1-3 references
   to 1-2 arrays (a permutation of the loop indices, an optional shear and
   a 0/1 offset), each array sized to hold its references' images, under a
   row-major, column-major, permuted or inter-node layout. *)
type ref_shape = { array : int; perm : int array; shear : (int * int) option; q : int array }

type layout_kind = Row | Col | Perm of int array | Inter of int array * bool * int * int * int

type nest_case = {
  bounds : (int * int) array;
  parallel_dim : int;
  shapes : ref_shape list;
  kinds : layout_kind array;  (* per array *)
  threads : int;
  blocks_per_thread : int;
  sample : int;
  block_elems : int;
}

let gen_perm n =
  QCheck.Gen.(
    map
      (fun keys ->
        let idx = Array.init n Fun.id in
        Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) idx;
        idx)
      (array_repeat n nat))

let gen_case =
  QCheck.Gen.(
    let* depth = int_range 2 3 in
    let* bounds =
      array_repeat depth
        (let* lo = int_range 0 2 in
         let* ext = int_range 1 7 in
         return (lo, lo + ext - 1))
    in
    let* parallel_dim = int_range 0 (depth - 1) in
    let* n_arrays = int_range 1 2 in
    let* shapes =
      list_size (int_range 1 3)
        (let* array = int_range 0 (n_arrays - 1) in
         let* perm = gen_perm depth in
         let* sheared = bool in
         let* k1 = int_range 0 (depth - 1) in
         let* k2 = int_range 0 (depth - 1) in
         let* q = array_repeat depth (int_range 0 1) in
         return
           { array; perm; shear = (if sheared && k1 <> k2 then Some (k1, k2) else None); q })
    in
    let* kinds =
      array_repeat n_arrays
        (oneof
           [
             return Row;
             return Col;
             map (fun p -> Perm p) (gen_perm depth);
             (let* d = gen_perm depth in
              let* negate = bool in
              let* num_blocks = int_range 1 4 in
              let* slab = int_range 1 4 in
              let* chunk = int_range 1 4 in
              return (Inter (d, negate, num_blocks, slab, chunk)));
           ])
    in
    let* threads = int_range 1 4 in
    let* blocks_per_thread = int_range 1 3 in
    let* sample = int_range 1 4 in
    (* any block size, not only a run's (the default topology's is 64) *)
    let* block_elems = int_range 1 9 in
    return
      { bounds; parallel_dim; shapes; kinds; threads; blocks_per_thread; sample; block_elems })

let access_of depth s =
  let mat = Array.init depth (fun k -> Array.init depth (fun j -> if s.perm.(k) = j then 1 else 0)) in
  (match s.shear with
  | Some (k1, k2) -> mat.(k1).(s.perm.(k2)) <- mat.(k1).(s.perm.(k2)) + 1
  | None -> ());
  Flo_poly.Access.make ~array_id:s.array mat (Array.copy s.q)

let program_of c =
  let depth = Array.length c.bounds in
  let refs = List.map (access_of depth) c.shapes in
  let extents a =
    Array.init depth (fun k ->
        List.fold_left
          (fun acc r ->
            if Flo_poly.Access.array_id r <> a then acc
            else
              let m = Flo_poly.Access.matrix r in
              let top = ref (Flo_poly.Access.offset r).(k) in
              Array.iteri (fun j (_, hi) -> top := !top + (m.(k).(j) * hi)) c.bounds;
              max acc (!top + 1))
          1 refs)
  in
  let spaces = Array.init (Array.length c.kinds) (fun a -> Flo_poly.Data_space.make (extents a)) in
  let layouts =
    Array.mapi
      (fun a kind ->
        let space = spaces.(a) in
        match kind with
        | Row -> Flo_core.File_layout.Row_major space
        | Col -> Flo_core.File_layout.Col_major space
        | Perm p -> Flo_core.File_layout.permuted space p
        | Inter (p, negate, num_blocks, slab_height, chunk) ->
          let d =
            Array.init depth (fun r ->
                Array.init depth (fun j ->
                    if p.(r) <> j then 0 else if negate && r = 0 then -1 else 1))
          in
          let layer capacity fanout = { Flo_core.Chunk_pattern.capacity; fanout } in
          Flo_core.File_layout.internode ~space ~d ~v:0 ~num_blocks ~v_origin:0 ~slab_height
            ~pattern:
              (Flo_core.Chunk_pattern.make
                 ~layers:[| layer (2 * chunk) 2; layer (8 * chunk) 2 |]))
      c.kinds
  in
  let program =
    Flo_poly.Program.make ~name:"law"
      (Array.to_list
         (Array.mapi
            (fun a space -> Flo_poly.Program.declare ~id:a ~name:(Printf.sprintf "a%d" a) space)
            spaces))
      [
        Flo_poly.Loop_nest.make ~parallel_dim:c.parallel_dim
          (Flo_poly.Iter_space.make c.bounds)
          refs;
      ]
  in
  (program, fun id -> layouts.(id))

let print_case c =
  Printf.sprintf "bounds=[%s] u=%d refs=%d arrays=%d threads=%d bpt=%d sample=%d block=%d"
    (String.concat ";"
       (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) c.bounds)))
    c.parallel_dim (List.length c.shapes) (Array.length c.kinds) c.threads
    c.blocks_per_thread c.sample c.block_elems

let prop_predict_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"Predict.compute = per-element oracle"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let program, layouts = program_of c in
      let p =
        P.compute ~blocks_per_thread:c.blocks_per_thread ~sample:c.sample
          ~block_elems:c.block_elems ~threads:c.threads ~name:"law" ~layouts program
      in
      let o =
        Predict_oracle.compute ~blocks_per_thread:c.blocks_per_thread ~sample:c.sample
          ~block_elems:c.block_elems ~threads:c.threads ~layouts program
      in
      p.P.distinct = o.Predict_oracle.distinct
      && p.P.cross_shared_blocks = o.Predict_oracle.cross_shared_blocks
      && p.P.cross_pairs = o.Predict_oracle.cross_pairs
      && p.P.distinct_blocks = o.Predict_oracle.distinct_blocks
      && p.P.single_owner = (o.Predict_oracle.cross_shared_blocks = 0))

(* A reference that leaves its array: A[i + 1] over i in 0..7 on an
   8-element array.  The per-element model raises on the last iteration;
   the walk rejects the slice up front, and so does stream generation, like
   its per-element reference. *)
let test_out_of_range_reference () =
  let space = Flo_poly.Data_space.make [| 8 |] in
  let nest =
    Flo_poly.Loop_nest.make ~parallel_dim:0
      (Flo_poly.Iter_space.make [| (0, 7) |])
      [ Flo_poly.Access.of_rows ~array_id:0 [ [ 1 ] ] [ 1 ] ]
  in
  let program =
    Flo_poly.Program.make ~name:"oob" [ Flo_poly.Program.declare ~id:0 ~name:"a" space ] [ nest ]
  in
  let layouts _ = Flo_core.File_layout.Row_major space in
  let raises label f =
    checkb label true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "oracle raises" (fun () ->
      ignore (Predict_oracle.compute ~block_elems:4 ~threads:2 ~layouts program));
  raises "Predict.compute raises" (fun () ->
      ignore (P.compute ~block_elems:4 ~threads:2 ~name:"oob" ~layouts program));
  raises "reference_streams raises" (fun () ->
      ignore
        (Tracegen.reference_streams ~layouts ~block_elems:4 ~threads:2 ~blocks_per_thread:1
           nest));
  raises "nest_streams raises" (fun () ->
      ignore
        (Tracegen.nest_streams ~layouts ~block_elems:4 ~threads:2 ~blocks_per_thread:1 nest));
  (* with sampling the check covers the whole slice: thread 1 keeps only
     i = 4, 5, yet its slice reaches i = 7 *)
  raises "sampled nest_streams raises" (fun () ->
      ignore
        (Tracegen.nest_streams ~layouts ~block_elems:4 ~threads:2 ~blocks_per_thread:1
           ~sample:2 nest))

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_flagged_monotone; prop_predict_matches_oracle ]

let suite =
  [
    ("16-app suite: zero drift under inter (golden)", `Quick, test_suite_zero_drift_golden);
    ("block-size mismatch drifts and flags (golden)", `Quick, test_block_mismatch_golden);
    ("sampled run stays exact", `Quick, test_sampled_run_still_exact);
    ("default layout also exact", `Quick, test_default_layout_also_exact);
    ("tolerance masks flagging, not drift", `Quick, test_tolerance_masks_drift);
    ("Step II layer expectations", `Quick, test_predict_layer_expectations);
    ("record publishes gauges", `Quick, test_record_publishes_gauges);
    ("argument validation", `Quick, test_predict_validates_args);
    ("row drift arithmetic", `Quick, test_row_drift_arithmetic);
    ("out-of-range reference raises", `Quick, test_out_of_range_reference);
    ("drift watch: quiet on identical windows", `Quick, test_drift_quiet_on_identical);
    ("drift watch: flags after enter streak", `Quick, test_drift_flags_after_streak);
    ("drift watch: hysteresis", `Quick, test_drift_hysteresis);
    ("drift watch: matrix zero-padding", `Quick, test_drift_matrix_zero_padding);
    ("drift watch: config validation", `Quick, test_drift_config_validation);
    ("drift watch: phase shift recommends re-layout", `Quick, test_drift_signal_phase_shift);
  ]
  @ qsuite

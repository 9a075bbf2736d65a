(* Closed-loop simulation-kernel micro-benchmark, shared by
   bench/sim_bench.exe and the ungated `_sim/*` metrics of `bench -- json`.

   Block streams are generated once per app; a timed pass then replays them
   through fresh client buffers and a fresh hierarchy with [Run.replay],
   the round-robin quantum interleave of [Run.run], so the measured wall
   clock is the per-request simulation kernel alone — no tracegen, no
   layout compilation.  [Fast] is the production kernel
   ({!Flo_storage.Lru.create}, whose caches Hierarchy drives as
   {!Flo_storage.Flat_lru} state); [Reference] forces the retained pre-flat
   implementation ({!Flo_storage.Lru.reference} closures, through the same
   Hierarchy access body).  Both produce identical modeled results — the
   golden suite in test/test_sim_kernel.ml pins that — so the ratio of
   their walls is the cache-kernel speedup. *)

open Flo_storage
open Flo_workloads

type kernel = Fast | Reference

type prepared = {
  app : App.t;
  config : Config.t;
  (* (weight, per-thread streams) per nest, generated once *)
  weighted_streams : (int * Block.t array array) list;
}

type timing = {
  block_requests : int; (* requests reaching the hierarchy in one pass *)
  element_accesses : int;
  wall_s : float; (* best-of-reps wall clock of one pass *)
  elapsed_us : float; (* modeled time, for cross-kernel sanity checks *)
}

let prepare ~config ~layouts ?(sample = 1) app =
  let topo = config.Config.topology in
  let threads = Topology.threads topo in
  let weighted_streams =
    List.map
      (fun nest ->
        ( nest.Flo_poly.Loop_nest.weight,
          Tracegen.nest_streams ~layouts ~block_elems:topo.Topology.block_elems
            ~threads ~blocks_per_thread:config.Config.blocks_per_thread
            ~cluster:(Topology.threads_per_io topo) ~sample nest ))
      app.App.program.Flo_poly.Program.nests
  in
  { app; config; weighted_streams }

(* One closed-loop pass: fresh buffers + hierarchy, Run.run's replay loop.
   Returns (block_requests, modeled elapsed_us). *)
let pass kernel p =
  let config = p.config in
  let topo = config.Config.topology in
  let threads = Topology.threads topo in
  let hier =
    match kernel with
    | Fast ->
      Hierarchy.create ~costs:config.Config.costs
        ~disk_params:config.Config.disk_params topo
    | Reference ->
      Hierarchy.create ~l1_factory:Lru.reference ~l2_factory:Lru.reference
        ~costs:config.Config.costs ~disk_params:config.Config.disk_params topo
  in
  let block_requests = ref 0 in
  let request =
    match kernel with
    | Fast ->
      let buffers =
        Array.init threads (fun _ ->
            Flat_lru.create ~capacity:config.Config.client_buffer_blocks)
      in
      fun thread (b : Block.t) ->
        if Flat_lru.touch buffers.(thread) (b :> int) then
          Hierarchy.add_cpu_us hier ~thread config.Config.client_hit_us
        else begin
          ignore (Flat_lru.insert buffers.(thread) (b :> int));
          incr block_requests;
          Hierarchy.access hier ~thread b
        end
    | Reference ->
      let buffers =
        Array.init threads (fun _ ->
            Lru.reference ~capacity:config.Config.client_buffer_blocks)
      in
      fun thread b ->
        if buffers.(thread).Policy.touch b then
          Hierarchy.add_cpu_us hier ~thread config.Config.client_hit_us
        else begin
          ignore (buffers.(thread).Policy.insert b);
          incr block_requests;
          Hierarchy.access hier ~thread b
        end
  in
  List.iter
    (fun (weight, streams) ->
      for _rep = 1 to weight do
        Run.replay ~quantum:config.Config.quantum streams request
      done)
    p.weighted_streams;
  (!block_requests, Hierarchy.elapsed_us hier)

let element_accesses p =
  (* per pass: every stream element is one block touch of one reference *)
  List.fold_left
    (fun acc (weight, streams) ->
      acc + (weight * Array.fold_left (fun a s -> a + Array.length s) 0 streams))
    0 p.weighted_streams

let time ?(reps = 3) kernel p =
  let reps = max 1 reps in
  let best = ref infinity in
  let requests = ref 0 in
  let elapsed = ref 0. in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r, e = pass kernel p in
    let dt = Unix.gettimeofday () -. t0 in
    requests := r;
    elapsed := e;
    if dt < !best then best := dt
  done;
  {
    block_requests = !requests;
    element_accesses = element_accesses p;
    wall_s = !best;
    elapsed_us = !elapsed;
  }

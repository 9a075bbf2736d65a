type protocol = Inclusive | Demote_exclusive

type costs = { l1_hit_us : float; l2_hit_us : float; demote_us : float }

let default_costs = { l1_hit_us = 25.; l2_hit_us = 140.; demote_us = 8. }

(* Each cache is resolved once at creation: an exact LRU exposes its flat
   state ({!Policy.t.fast}) and is driven by direct Flat_lru calls — no
   closure indirection, no option boxing; any other policy keeps its
   closures.  [access] is one body over both, so observed, faulted and
   non-LRU runs share the allocation-free path. *)
type cache = Flat of Flat_lru.t | Closures of Policy.t

let resolve (c : Policy.t) =
  match c.Policy.fast with Some f -> Flat f | None -> Closures c

(* Every cache op returns an int victim, Flat_lru.nil meaning none. *)
let victim_int = function None -> Flat_lru.nil | Some (v : Block.t) -> (v :> int)

let[@inline] c_touch c (b : Block.t) =
  match c with Flat f -> Flat_lru.touch f (b :> int) | Closures p -> p.Policy.touch b

let[@inline] c_insert c (b : Block.t) =
  match c with
  | Flat f -> Flat_lru.insert f (b :> int)
  | Closures p -> victim_int (p.Policy.insert b)

let[@inline] c_insert_cold c (b : Block.t) =
  match c with
  | Flat f -> Flat_lru.insert_cold f (b :> int)
  | Closures p -> victim_int (p.Policy.insert_cold b)

let[@inline] c_remove c (b : Block.t) =
  match c with Flat f -> Flat_lru.remove f (b :> int) | Closures p -> p.Policy.remove b

let[@inline] c_contains c (b : Block.t) =
  match c with
  | Flat f -> Flat_lru.contains f (b :> int)
  | Closures p -> p.Policy.contains b

let c_clear = function Flat f -> Flat_lru.clear f | Closures p -> p.Policy.clear ()

type t = {
  topo : Topology.t;
  protocol : protocol;
  mapping : int array; (* thread -> compute node *)
  l1 : cache array;
  l2 : cache array;
  l1_stats : Stats.t array;
  l2_stats : Stats.t array;
  disks : Disk.t array;
  costs : costs;
  file_stride : int;
  readahead : int;
  clocks : float array;
  (* readahead-inserted blocks not yet claimed by a demand access, per
     storage node: feeds Stats.prefetch_hits *)
  speculative : (Block.t, unit) Hashtbl.t array;
  sink : Flo_obs.Sink.t;
  (* resolved once at creation so the hot path never consults the registry *)
  request_hist : Flo_obs.Histogram.t option;
  disk_hists : Flo_obs.Histogram.t option array;
  (* thread -> I/O node, precomputed so [access] does not re-derive the
     Topology lookups per request *)
  io_tbl : int array;
  (* per storage node, the overlapped-readahead transfer charge
     0.2 *. transfer_us, hoisted out of the readahead loop (disk params
     are immutable after creation, so the value is IEEE-identical) *)
  ra_charge : float array;
  (* None guards the exact fault-free code path: with no injector every
     fault branch below is the unmodified original arithmetic *)
  faults : Flo_faults.Injector.t option;
}

let create ?(protocol = Inclusive) ?mapping ?l1 ?l2 ?l1_factory ?l2_factory
    ?(costs = default_costs) ?disk_params ?(file_stride = Striping.default_file_stride)
    ?(readahead = 0) ?(sink = Flo_obs.Sink.null) ?metrics ?faults topo =
  if readahead < 0 then invalid_arg "Hierarchy.create: negative readahead";
  let threads = Topology.threads topo in
  let mapping =
    match mapping with
    | None -> Array.init threads (fun t -> t mod topo.Topology.compute_nodes)
    | Some m ->
      if Array.length m <> threads then invalid_arg "Hierarchy.create: mapping length";
      Array.iter
        (fun c ->
          if c < 0 || c >= topo.Topology.compute_nodes then
            invalid_arg "Hierarchy.create: mapping target out of range")
        m;
      Array.copy m
  in
  let l1_factory = Option.value l1_factory ~default:Lru.create in
  let l2_factory = Option.value l2_factory ~default:Lru.create in
  let l1 =
    match l1 with
    | Some caches ->
      if Array.length caches <> topo.Topology.io_nodes then
        invalid_arg "Hierarchy.create: l1 cache count";
      caches
    | None ->
      Array.init topo.Topology.io_nodes (fun _ ->
          l1_factory ~capacity:topo.Topology.io_cache_blocks)
  in
  let l2 =
    match l2 with
    | Some caches ->
      if Array.length caches <> topo.Topology.storage_nodes then
        invalid_arg "Hierarchy.create: l2 cache count";
      caches
    | None ->
      Array.init topo.Topology.storage_nodes (fun _ ->
          l2_factory ~capacity:topo.Topology.storage_cache_blocks)
  in
  let disks =
    Array.init topo.Topology.storage_nodes (fun _ -> Disk.create ?params:disk_params ())
  in
  {
    topo;
    protocol;
    mapping;
    l1 = Array.map resolve l1;
    l2 = Array.map resolve l2;
    l1_stats = Array.init topo.Topology.io_nodes (fun _ -> Stats.create ());
    l2_stats = Array.init topo.Topology.storage_nodes (fun _ -> Stats.create ());
    disks;
    costs;
    file_stride;
    readahead;
    clocks = Array.make threads 0.;
    speculative =
      Array.init topo.Topology.storage_nodes (fun _ -> Hashtbl.create 64);
    sink;
    request_hist =
      Option.map (fun m -> Flo_obs.Metrics.histogram m "request_latency_us") metrics;
    disk_hists =
      Array.init topo.Topology.storage_nodes (fun i ->
          Option.map
            (fun m ->
              Flo_obs.Metrics.histogram m
                ~labels:[ ("node", string_of_int i) ]
                "disk_service_us")
            metrics);
    io_tbl =
      Array.init threads (fun th ->
          Topology.io_of_compute topo (mapping.(th) mod topo.Topology.compute_nodes));
    ra_charge = Array.map (fun d -> 0.2 *. (Disk.params d).Disk.transfer_us) disks;
    faults;
  }

let topology t = t.topo

let io_node_of_thread t thread =
  if thread < 0 || thread >= Array.length t.clocks then
    invalid_arg "Hierarchy: thread out of range";
  t.io_tbl.(thread)

(* All events of one request carry the thread's clock at arrival: a trace
   orders requests on the simulated timeline without charging the request's
   own service time to its timestamp.  [@inline] here and on the helpers
   below keeps the null-sink path from boxing [time_us] or [latency_us]
   per call. *)
let[@inline] emit_timed t ~time_us ~kind ~layer ~node ~thread ~latency_us b =
  if not (Flo_obs.Sink.is_null t.sink) then
    t.sink.Flo_obs.Sink.emit
      (Flo_obs.Event.make ~time_us ~kind ~layer ~node ~thread ~file:(Block.file b)
         ~block:(Block.index b) ~latency_us ())

let[@inline] emit t ~time_us ~kind ~layer ~node ~thread b =
  emit_timed t ~time_us ~kind ~layer ~node ~thread ~latency_us:0. b

(* Fault routing: the storage node serving block [b] (its stripe's node,
   remapped by any stripe failover), and whether that node's cache is up.
   Fault-free, the stripe's node and [true]. *)
let[@inline] route t b =
  let sn0 = Striping.storage_node_of ~storage_nodes:t.topo.Topology.storage_nodes b in
  match t.faults with None -> sn0 | Some inj -> Flo_faults.Injector.route inj sn0

let[@inline] cache_online t sn =
  match t.faults with
  | None -> true
  | Some inj -> Flo_faults.Injector.cache_online inj ~node:sn

(* A block leaving an L2 cache can no longer yield a prefetch hit. *)
let[@inline] record_l2_eviction t ~time_us ~thread ~sn v =
  if v <> Flat_lru.nil then begin
    let victim = Block.unsafe_of_int v in
    Stats.record_eviction t.l2_stats.(sn);
    Hashtbl.remove t.speculative.(sn) victim;
    emit t ~time_us ~kind:Flo_obs.Event.Evict ~layer:Flo_obs.Event.L2 ~node:sn ~thread
      victim
  end

(* Install a block in an L1 cache; under DEMOTE an L1 victim moves to the
   MRU end of its storage node's cache. *)
let[@inline] install_l1 t ~time_us ~io ~thread b =
  let v = c_insert t.l1.(io) b in
  if v <> Flat_lru.nil then begin
    let victim = Block.unsafe_of_int v in
    Stats.record_eviction t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Evict ~layer:Flo_obs.Event.L1 ~node:io ~thread
      victim;
    match t.protocol with
    | Inclusive -> ()
    | Demote_exclusive ->
      let sn = route t victim in
      (* a demotion to an offline storage cache is a no-op: the client
         simply drops the block *)
      if cache_online t sn then begin
        Stats.record_demotion t.l2_stats.(sn);
        emit t ~time_us ~kind:Flo_obs.Event.Demote ~layer:Flo_obs.Event.L2 ~node:sn
          ~thread victim;
        t.clocks.(thread) <- t.clocks.(thread) +. t.costs.demote_us;
        record_l2_eviction t ~time_us ~thread ~sn (c_insert t.l2.(sn) victim)
      end
  end

(* The retry-engine read path, used only when an injector is attached.  A
   failed attempt costs its full (wasted) service time; backoffs and the
   eventual failover read are also charged to the requesting thread's
   modeled clock.  With a zero-rate plan no draw ever fails and the returned
   cost is [0. +. (raw *. 1.0)] — IEEE-identical to the fault-free path. *)
let faulty_disk_read t inj ~time_us ~thread ~sn ~lba b =
  let policy = Flo_faults.Injector.retry_policy inj in
  let read node =
    let raw = Disk.service t.disks.(node) ~lba in
    let svc = raw *. Flo_faults.Injector.service_multiplier inj ~node in
    (match t.disk_hists.(node) with
    | Some h -> Flo_obs.Histogram.add h svc
    | None -> ());
    svc
  in
  let failover ~extra =
    (* retries exhausted or budget spent: read the replica on the next node
       (forced success — replicas don't share the transient failure) *)
    let node = Flo_faults.Injector.failover_node inj ~node:sn in
    Flo_faults.Injector.record_failover inj;
    let svc = read node in
    emit_timed t ~time_us ~kind:Flo_obs.Event.Failover ~layer:Flo_obs.Event.Disk ~node
      ~thread ~latency_us:svc b;
    Flo_faults.Injector.observe_retry_latency inj extra;
    extra +. svc
  in
  let rec attempt k ~extra =
    let svc = read sn in
    if not (Flo_faults.Injector.draw_read_error inj ~node:sn) then begin
      emit_timed t ~time_us ~kind:Flo_obs.Event.Disk_read ~layer:Flo_obs.Event.Disk
        ~node:sn ~thread ~latency_us:svc b;
      if extra > 0. then Flo_faults.Injector.observe_retry_latency inj extra;
      extra +. svc
    end
    else begin
      Flo_faults.Injector.record_fault inj;
      emit_timed t ~time_us ~kind:Flo_obs.Event.Fault ~layer:Flo_obs.Event.Disk
        ~node:sn ~thread ~latency_us:svc b;
      let extra = extra +. svc in
      if k >= policy.Flo_faults.Retry.max_retries then failover ~extra
      else if extra >= policy.Flo_faults.Retry.timeout_us then begin
        Flo_faults.Injector.record_timeout inj;
        emit t ~time_us ~kind:Flo_obs.Event.Timeout ~layer:Flo_obs.Event.Disk ~node:sn
          ~thread b;
        failover ~extra
      end
      else begin
        let backoff = Flo_faults.Injector.backoff_us inj ~node:sn ~attempt:k in
        Flo_faults.Injector.record_retry inj;
        emit_timed t ~time_us ~kind:Flo_obs.Event.Retry ~layer:Flo_obs.Event.Disk ~node:sn
          ~thread ~latency_us:backoff b;
        attempt (k + 1) ~extra:(extra +. backoff)
      end
    end
  in
  attempt 0 ~extra:0.

(* The one request walk: L1, then the striped L2, then disk.  Sink emission
   and fault routing branch on [Sink.is_null] / [faults = None] inline, so a
   null sink and no injector leave only the cache ops and the arithmetic,
   with costs summed left to right into an unboxed local. *)
let access t ~thread b =
  if thread < 0 || thread >= Array.length t.clocks then
    invalid_arg "Hierarchy: thread out of range";
  let io = t.io_tbl.(thread) in
  let time_us = t.clocks.(thread) in
  let cost = ref t.costs.l1_hit_us in
  emit t ~time_us ~kind:Flo_obs.Event.Access ~layer:Flo_obs.Event.L1 ~node:io ~thread b;
  if c_touch t.l1.(io) b then begin
    Stats.record_hit t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Hit ~layer:Flo_obs.Event.L1 ~node:io ~thread b
  end
  else begin
    Stats.record_miss t.l1_stats.(io);
    emit t ~time_us ~kind:Flo_obs.Event.Miss ~layer:Flo_obs.Event.L1 ~node:io ~thread b;
    let sn = route t b in
    let l2_online = cache_online t sn in
    let l2 = t.l2.(sn) in
    cost := !cost +. t.costs.l2_hit_us;
    if l2_online && c_touch l2 b then begin
      Stats.record_hit t.l2_stats.(sn);
      emit t ~time_us ~kind:Flo_obs.Event.Hit ~layer:Flo_obs.Event.L2 ~node:sn ~thread b;
      if Hashtbl.mem t.speculative.(sn) b then begin
        (* first demand touch of a readahead-inserted block *)
        Hashtbl.remove t.speculative.(sn) b;
        Stats.record_prefetch_hit t.l2_stats.(sn)
      end;
      match t.protocol with
      | Inclusive -> ()
      | Demote_exclusive ->
        (* the client caches it now: deprioritize rather than keep hot *)
        ignore (c_remove l2 b);
        ignore (c_insert_cold l2 b)
    end
    else begin
      Stats.record_miss t.l2_stats.(sn);
      emit t ~time_us ~kind:Flo_obs.Event.Miss ~layer:Flo_obs.Event.L2 ~node:sn ~thread b;
      (* a speculative entry for a block the cache no longer holds is stale *)
      Hashtbl.remove t.speculative.(sn) b;
      (match t.faults with
      | Some inj when not l2_online -> Flo_faults.Injector.record_offline_miss inj
      | _ -> ());
      let lba =
        Striping.lba_of ~storage_nodes:t.topo.Topology.storage_nodes
          ~file_stride:t.file_stride b
      in
      let service =
        match t.faults with
        | None ->
          let service = Disk.service t.disks.(sn) ~lba in
          (match t.disk_hists.(sn) with
          | Some h -> Flo_obs.Histogram.add h service
          | None -> ());
          emit_timed t ~time_us ~kind:Flo_obs.Event.Disk_read ~layer:Flo_obs.Event.Disk
            ~node:sn ~thread ~latency_us:service b;
          service
        | Some inj -> faulty_disk_read t inj ~time_us ~thread ~sn ~lba b
      in
      cost := !cost +. service;
      (* sequential readahead: the storage node speculatively pulls the next
         blocks of the same file into its cache.  The disk transfer overlaps
         with the demand read, so only a fraction of the transfer is charged
         to the requesting thread. *)
      if t.readahead > 0 && l2_online then begin
        let charge = t.ra_charge.(sn) in
        for k = 1 to t.readahead do
          (* next stripe unit on this storage node *)
          let next =
            Block.make ~file:(Block.file b)
              ~index:(Block.index b + (k * t.topo.Topology.storage_nodes))
          in
          if Block.index next / t.topo.Topology.storage_nodes < t.file_stride
             && not (c_contains l2 next)
          then begin
            Stats.record_prefetch t.l2_stats.(sn);
            Hashtbl.replace t.speculative.(sn) next ();
            emit t ~time_us ~kind:Flo_obs.Event.Prefetch ~layer:Flo_obs.Event.L2 ~node:sn
              ~thread next;
            cost := !cost +. charge;
            record_l2_eviction t ~time_us ~thread ~sn (c_insert_cold l2 next)
          end
        done
      end;
      if l2_online then
        record_l2_eviction t ~time_us ~thread ~sn
          (match t.protocol with
          | Inclusive -> c_insert l2 b
          | Demote_exclusive ->
            (* DEMOTE-LRU keeps plain LRU for read blocks too, but a block
               the client is about to cache enters at the cold end *)
            c_insert_cold l2 b)
    end;
    install_l1 t ~time_us ~io ~thread b
  end;
  (match t.request_hist with
  | Some h -> Flo_obs.Histogram.add h !cost
  | None -> ());
  t.clocks.(thread) <- t.clocks.(thread) +. !cost

let touch_element t ~thread ~file ~offset =
  access t ~thread
    (Block.of_offset ~block_elems:t.topo.Topology.block_elems ~file offset)

let thread_clock_us t thread = t.clocks.(thread)

let elapsed_us t = Array.fold_left max 0. t.clocks

let thread_clocks_us t = Array.copy t.clocks

let add_cpu_us t ~thread us = t.clocks.(thread) <- t.clocks.(thread) +. us

let l1_stats t = Stats.merge (Array.to_list t.l1_stats)
let l2_stats t = Stats.merge (Array.to_list t.l2_stats)
let l1_stats_of t i = t.l1_stats.(i)
let l2_stats_of t i = t.l2_stats.(i)
let io_nodes t = Array.length t.l1_stats
let storage_nodes t = Array.length t.l2_stats

let disk_reads t = Array.fold_left (fun acc d -> acc + Disk.reads d) 0 t.disks

let prefetches t =
  Array.fold_left (fun acc s -> acc + s.Stats.prefetches) 0 t.l2_stats

let prefetch_hits t =
  Array.fold_left (fun acc s -> acc + s.Stats.prefetch_hits) 0 t.l2_stats

let request_latency t = t.request_hist

let reset t =
  Array.iter c_clear t.l1;
  Array.iter c_clear t.l2;
  Array.iter Stats.reset t.l1_stats;
  Array.iter Stats.reset t.l2_stats;
  Array.iter Disk.reset t.disks;
  Array.iter Hashtbl.reset t.speculative;
  Array.fill t.clocks 0 (Array.length t.clocks) 0.

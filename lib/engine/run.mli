(** The experiment runner: execute an application's block-request trace
    against a simulated storage hierarchy and report the paper's metrics. *)

open Flo_storage
open Flo_core
open Flo_workloads

type caching =
  | Lru  (** the paper's default: inclusive LRU at both layers *)
  | Demote  (** DEMOTE-LRU exclusive caching, Fig. 7(h) *)
  | Karma  (** KARMA hint-based exclusive caching, Fig. 7(h) *)
  | Custom of Policy.factory * Policy.factory
      (** any other (inclusive) policy pair, e.g. MQ or CLOCK *)

type result = {
  app : string;
  elapsed_us : float;  (** modeled parallel execution time *)
  l1 : Stats.t;  (** aggregated I/O-node cache counters *)
  l2 : Stats.t;  (** aggregated storage-node cache counters *)
  disk_reads : int;
  block_requests : int;  (** requests reaching the hierarchy (post-buffer) *)
  element_accesses : int;
  iterations : int;
  prefetches : int;  (** readahead insertions at the storage nodes *)
  prefetch_hits : int;  (** prefetched blocks later demand-touched *)
  l1_nodes : Stats.t array;  (** per-I/O-node counter snapshots *)
  l2_nodes : Stats.t array;  (** per-storage-node counter snapshots *)
  thread_us : float array;  (** per-thread modeled clocks *)
}

val l1_miss_per_element : result -> float
(** Misses per element access — the layout-independent denominator that
    makes Tables 2-3 comparable across layouts. *)

val l2_miss_per_element : result -> float

val run :
  ?mapping:int array ->
  ?caching:caching ->
  ?assigns:(int -> Compmap.strategy) ->
  ?sample:int ->
  ?readahead:int ->
  ?sink:Flo_obs.Sink.t ->
  ?metrics:Flo_obs.Metrics.t ->
  ?faults:Flo_faults.Injector.t ->
  config:Config.t ->
  layouts:(int -> File_layout.t) ->
  App.t ->
  result
(** [layouts] maps array ids to their file layouts.  [mapping] permutes
    threads over compute nodes.  [assigns] gives the computation-mapping
    baseline's strategy per nest index (layouts stay canonical there by
    convention, but any combination is allowed).  [sample > 1] runs the
    cheap profile-mode trace used by the search baselines.  [readahead]
    enables storage-node sequential prefetching (see
    {!Flo_storage.Hierarchy.create}).  [sink]/[metrics] attach the
    observability layer: structured trace events, the
    ["request_latency_us"]/["disk_service_us"] histograms, and a
    ["span.tracegen"] phase timing (defaults: off; simulation results are
    unaffected).  The sink is flushed before returning.

    [faults] attaches a fault injector to the hierarchy (see
    {!Flo_storage.Hierarchy.create} and [docs/ROBUSTNESS.md]); create one
    injector per run — read its counters back afterwards with
    {!Flo_faults.Injector.counts}.  Omitted (or compiled from an inert
    plan), the run is byte-identical to the fault-free path. *)

val replay : quantum:int -> Block.t array array -> (int -> Block.t -> unit) -> unit
(** [replay ~quantum streams request] interleaves per-thread block streams
    round-robin, [quantum] requests per thread per turn, calling
    [request thread block] for each element in that order — one weighted
    repetition of a nest, the replay order of {!run}. *)

val karma_hints_of_streams :
  io_of_thread:(int -> int) -> io_nodes:int -> (int * Block.t array array) list ->
  Karma.hint list array
(** Per-I/O-node hint lists from weighted per-nest streams (exposed for
    tests): one hint per (thread, nest, file) giving its block range and
    request count.  Each (thread, nest) contribution is sorted ascending by
    [(file, lo_block)], so the result is a pure function of the streams —
    independent of hash-table iteration order. *)

val pp_result : Format.formatter -> result -> unit

(** Closed-loop simulation-kernel micro-benchmark.

    Separates stream generation (once, {!prepare}) from the timed replay
    ({!time}), so the measured wall clock is the per-request kernel alone:
    client data-sieving buffers, hierarchy caches, disk model.  Used by
    [bench/sim_bench.exe] and the ungated [_sim/*] metrics of
    [bench -- json]. *)

type kernel =
  | Fast  (** production kernel: caches on {!Flo_storage.Flat_lru} state *)
  | Reference
      (** retained pre-flat kernel: {!Flo_storage.Lru.reference} closures,
          through the same hierarchy access body *)

type prepared

type timing = {
  block_requests : int;  (** requests reaching the hierarchy in one pass *)
  element_accesses : int;  (** stream elements replayed in one pass *)
  wall_s : float;  (** best-of-reps wall clock of one pass *)
  elapsed_us : float;  (** modeled time — must match across kernels *)
}

val prepare :
  config:Config.t ->
  layouts:(int -> Flo_core.File_layout.t) ->
  ?sample:int ->
  Flo_workloads.App.t ->
  prepared

val time : ?reps:int -> kernel -> prepared -> timing
(** Best wall clock over [reps] (default 3) fresh closed-loop passes. *)

(** Trace analytics: consume a {!Flo_obs.Event.t} stream — live through a
    sink, or offline from a [--trace] JSONL file — and accumulate

    - per-(layer, node) block reuse-distance histograms ({!Reuse}),
    - per-shared-cache inter-thread sharing/conflict matrices ({!Sharing}),
    - per-thread distinct-block counts per file ({!Locality}),

    i.e. the observable counterparts of the paper's Step I (Eq. 4) and
    Step II objectives.  Rendering lives in [Flo_engine.Report]; Perfetto
    export in {!Perfetto}. *)

type cache = { layer : Flo_obs.Event.layer; node : int }

val cache_name : cache -> string
(** ["l1/0"], ["l2/3"], ... *)

type t

val create : ?keep_events:bool -> unit -> t
(** [keep_events] retains the raw events (for {!Perfetto} export); off by
    default so live analysis stays O(state), not O(trace). *)

val feed : t -> Flo_obs.Event.t -> unit

val sink : t -> Flo_obs.Sink.t
(** Live accumulation: attach to [Run.run ~sink] (tee with other sinks as
    needed). *)

val of_events : ?keep_events:bool -> Flo_obs.Event.t list -> t

type load_error =
  | Io of string  (** the file could not be opened *)
  | Malformed of { line : int; msg : string }
      (** first malformed trace line (1-based) and the parse error *)

val load_error_to_string : load_error -> string

val load_file : ?keep_events:bool -> string -> (t, load_error) result
(** Offline mode: parse a JSONL trace with {!Flo_obs.Event.of_json}.  Blank
    lines are skipped; the first malformed line aborts with
    [Malformed] carrying its line number.  A negative thread id is
    malformed; negative file and block ids load like any other. *)

val load_channel : ?keep_events:bool -> in_channel -> (t, load_error) result

val events : t -> Flo_obs.Event.t list
(** Retained events in trace order; [[]] unless [keep_events] was set. *)

val event_count : t -> int
val kind_count : t -> Flo_obs.Event.kind -> int

val time_span : t -> float * float
(** Smallest and largest timestamp seen; [(0., 0.)] when empty. *)

val total_disk_us : t -> float
(** Summed [latency_us] of the disk reads. *)

val caches : t -> cache list
(** Caches with any lookup or eviction activity: L1 nodes first, then L2,
    nodes ascending. *)

val reuse_of : t -> cache -> Reuse.t option
val sharing_of : t -> cache -> Sharing.t option
val locality : t -> Locality.t

(** {1 Whole-layer scalars} — the headline numbers compared across runs. *)

val cross_shared_at : t -> Flo_obs.Event.layer -> int
(** Sum of {!Sharing.cross_shared} over the layer's caches. *)

val conflicts_at : t -> Flo_obs.Event.layer -> int
(** Sum of {!Sharing.total_conflicts} over the layer's caches. *)

val reuse_histogram_at : t -> Flo_obs.Event.layer -> Flo_obs.Histogram.t
(** Bucket-wise merge of the layer's reuse-distance histograms. *)

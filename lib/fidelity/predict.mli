(** Compiler-side analytical predictions for one application under chosen
    layouts — the model half of the fidelity loop.

    The paper's pass is driven by two analytical claims:

    - {b Step I (Eq. 4)}: the chosen transformation [D] minimizes the number
      of distinct blocks of each file every thread drags through the
      hierarchy.  {!compute} evaluates that objective exactly, with no
      cache simulation or interleaving involved: it runs
      {!Flo_core.Nest_walk} — the walk the runtime's streams come from, the
      same round-robin distribution and sampled prefix — at the model's own
      [block_elems], and counts distinct [(thread, file, block)] triples
      in a [Flo_analysis.Locality.t], the set the observed side counts
      with.  The walk's per-file collapse does not change the count: it
      drops a request only when the block is the one that file last read
      for that thread, and that block is already in the thread's set.
    - {b Step II}: the chunk placement
      [b_i = ((x / (t_1 ... t_(i-1))) mod t_i) * S_i] confines each thread's
      data to thread-private, block-aligned chunks, so at a matching block
      size no block has two owners and cross-thread sharing is zero.
      {!t.cross_shared_blocks} / {!t.cross_pairs} evaluate that claim on the
      predicted access sets, and [arrays] carries the per-layer pattern
      parameters ([S_i], [N_i], [t_i]) behind it.

    Joining these predictions against the observed quantities of
    [Flo_analysis] is {!Fidelity}'s job. *)

open Flo_poly
open Flo_core

type layer_expect = {
  level : int;  (** 1-based layer index, bottom-up *)
  capacity : int;  (** S_i, elements *)
  fanout : int;  (** N_i *)
  reps : int;  (** t_i (1 for the top layer) *)
  threads_sharing : int;  (** threads behind one layer-i cache *)
  chunks_per_thread : int;  (** one thread's chunks resident per layer-i pattern *)
  capacity_blocks : int;  (** S_i / block size *)
}

type array_prediction = {
  array_id : int;
  array_name : string;
  layout : string;  (** [File_layout.describe] *)
  optimized : bool;  (** true for inter-node layouts *)
  chunk_elems : int option;  (** S_1 / l for inter-node layouts *)
  block_aligned : bool;  (** chunk is a whole number of blocks *)
  layers : layer_expect list;  (** Step II parameters, empty if not optimized *)
}

type t = {
  app : string;
  threads : int;
  block_elems : int;  (** block size the predictions were made for *)
  blocks_per_thread : int;
  sample : int;
  arrays : array_prediction list;
  distinct : ((int * int) * int) list;
      (** [((thread, file), predicted distinct blocks)], ascending — Eq. 4 *)
  cross_shared_blocks : int;  (** blocks predicted to be touched by >= 2 threads *)
  cross_pairs : int;  (** predicted unordered thread-pair co-touches *)
  distinct_blocks : int;  (** total distinct blocks across all threads *)
  single_owner : bool;  (** Step II claim: no block has two owners *)
}

val compute :
  ?blocks_per_thread:int ->
  ?sample:int ->
  block_elems:int ->
  threads:int ->
  name:string ->
  layouts:(int -> File_layout.t) ->
  Program.t ->
  t
(** [blocks_per_thread] and [sample] mirror the runner's parallelization
    knobs (defaults 1); predictions are exact for a run under the same
    parameters.  @raise Invalid_argument on non-positive [sample] or
    [block_elems], or when a reference leaves its array (checked per
    iteration block by {!Flo_core.Nest_walk.walk}; with [sample > 1] the
    check also covers the block's elements past the sampled prefix). *)

val pp_layer : Format.formatter -> layer_expect -> unit

(** Per-thread block-request stream generation.

    A thread's element accesses are translated through the chosen file
    layouts into block requests; {e consecutive requests to the same block
    collapse into one} — exactly the MPI-IO behaviour the paper relies on:
    a thread reading elements stored contiguously issues one block-sized
    request, a thread whose elements are scattered issues one request per
    element.  This is where a layout's "block footprint" becomes request
    traffic.  The walk itself lives in {!Flo_core.Nest_walk}, shared with
    the fidelity model; this module turns it into [Block.t] streams. *)

open Flo_poly
open Flo_storage
open Flo_core

val nest_streams :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  Block.t array array
(** [nest_streams ... nest] is one collapsed block-request stream per
    thread for a single execution of [nest] (weights are replayed by the
    runner).  [assign] substitutes the computation-mapping baseline's
    block-to-thread map ([cluster] = threads per layer-1 cache, required
    with [assign]).  [sample > 1] keeps the first [1/sample] of each
    thread's iterations (a prefix preserves contiguity) — profile mode.  The per-nest block count is capped by the nest's
    parallel extent.

    This is the strength-reduced walk of {!Flo_core.Nest_walk} (incremental
    affine cursors, int request buffers, no per-element allocation,
    transform, or division), materialized as [Block.t] arrays; the fidelity
    model counts the same walk.  Element-for-element identical to
    {!reference_streams}.
    @raise Invalid_argument on [sample < 1], or when a reference leaves
    its array — checked once per iteration block, so with [sample > 1]
    also for the block's elements past the sampled prefix. *)

val reference_streams :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  Block.t array array
(** The original naive generator — evaluates {!Access.eval} and
    {!File_layout.offset_of} per element — retained as the executable
    specification of the stream semantics.  The golden equality tests
    assert [nest_streams = reference_streams] across the whole workload
    suite; use this (or [--jobs 1]) when auditing the fast path. *)

val iterations_per_thread :
  threads:int -> blocks_per_thread:int -> ?sample:int -> Loop_nest.t -> int array
(** Element-iteration counts matching [nest_streams]'s enumeration (used to
    charge CPU time). *)

(** The strength-reduced element walk of one loop nest: each thread's
    collapsed block-request sequence under chosen file layouts.

    A thread runs its iteration blocks (round-robin, or a computation-mapping
    [assign]) in lexicographic order; every element access is translated
    through its array's layout into a block index, and {e consecutive
    requests to the same block of the same file collapse into one} — the
    I/O runtime buffers one block per open file.  This is the one
    implementation of that walk: [Flo_engine.Tracegen.nest_streams] turns
    its output into block streams, and [Flo_fidelity.Predict] counts its
    distinct blocks.

    Per-reference offsets are incremental affine cursors over the walk (via
    {!File_layout.linear_strides} / {!File_layout.offset_of_transformed}),
    and requests go into a caller-owned int buffer, so the hot loop performs
    no per-element allocation, transform, or division. *)

open Flo_poly

val plan_of :
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  Loop_nest.t ->
  Parallelize.t
(** The parallelization every walk uses: [min (threads * blocks_per_thread)
    extent] iteration blocks along the nest's parallel loop, assigned
    round-robin unless [assign] substitutes a computation-mapping strategy
    ([cluster] = threads per layer-1 cache, required with [assign]).
    @raise Invalid_argument on [assign] without [cluster]. *)

type requests = private {
  mutable files : int array;
  mutable indices : int array;
  mutable len : int;
}
(** A growable request buffer: request [i < len] is block [indices.(i)] of
    file [files.(i)]. *)

val requests : unit -> requests
(** An empty buffer, reusable across {!walk} calls. *)

type t
(** One nest prepared for walking.  Holds the per-reference cursors, so one
    [t] walks one thread at a time. *)

val create :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  t
(** [sample > 1] keeps the first [1/sample] of each thread's iterations (a
    prefix preserves contiguity) — profile mode.
    @raise Invalid_argument on [sample < 1], [block_elems < 1], or
    [assign] without [cluster]. *)

val walk : t -> thread:int -> requests -> unit
(** [walk t ~thread buf] replaces [buf]'s contents with [thread]'s
    collapsed request sequence.

    Before walking a slice (one iteration block, clipped to the space), the
    image of the slice under each reference is checked against the
    reference's array with exact per-coordinate interval bounds, once per
    slice.  With [sample > 1] the check covers the whole slice, including
    the elements past the sampled prefix.
    @raise Invalid_argument if a reference leaves its array. *)

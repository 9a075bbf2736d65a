(** Runtime-pluggable cache replacement policies.

    A policy instance owns a fixed-capacity set of blocks and decides
    evictions.  Instances are records of closures so that hierarchies can mix
    policies chosen at run time (the paper stresses that the layout pass is
    orthogonal to the caching policy). *)

type t = {
  name : string;
  capacity : int;
  touch : Block.t -> bool;
      (** Lookup; [true] on hit.  A hit refreshes the block's standing
          (recency, frequency, ... as the policy defines). *)
  insert : Block.t -> Block.t option;
      (** Cache the block at full standing; returns the victim evicted to
          make room, if any.  Inserting a resident block refreshes it and
          evicts nothing. *)
  insert_cold : Block.t -> Block.t option;
      (** Cache the block at the lowest standing the policy supports (e.g.
          LRU tail).  Policies without a cold end may alias {!insert}. *)
  remove : Block.t -> bool;
      (** Drop a block (exclusive-caching hook); [true] if it was resident. *)
  contains : Block.t -> bool;  (** Lookup without refreshing. *)
  size : unit -> int;
  clear : unit -> unit;
  iter : (Block.t -> unit) -> unit;
  fast : Flat_lru.t option;
      (** The flat allocation-free state backing the closures, when the
          policy is an exact LRU ({!Lru.create} populates it; every other
          policy leaves [None]).  {!Hierarchy} resolves each cache once at
          creation to this state or to the closures above; both must view
          the same state, so either backing gives the same results. *)
}

type factory = capacity:int -> t
(** All policy modules expose [create : factory]. *)

val check_capacity : int -> unit
(** @raise Invalid_argument when capacity < 1 (shared guard for factories). *)

(** Least-recently-used replacement — the paper's default policy.

    O(1) touch/insert/remove.  [insert] places at the MRU end,
    [insert_cold] at the LRU end.

    {!create} is backed by the allocation-free {!Flat_lru} kernel and
    populates {!Policy.t.fast} so {!Hierarchy} drives the flat state
    directly.  {!reference} is the original closure implementation over a
    hash table and an intrusive doubly-linked list ({!Dll}) — semantically
    bit-identical, kept as the executable spec for golden-equality tests
    and to exercise the hierarchy's closure backing. *)

val create : Policy.factory

val reference : Policy.factory
(** Pre-flat-kernel implementation; [fast = None], so hierarchies built
    from it call its closures. *)

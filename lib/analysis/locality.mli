(** Per-thread, per-file distinct-block counts — the paper's Step I
    objective (Eq. 4): how many distinct blocks of each file every thread
    drags through the hierarchy.  Feed the trace's [Access] events (the
    observed side) or the model's predicted requests ([Flo_fidelity.Predict]).

    Total over every int: thread, file and block ids are stored unpacked,
    so negative and extreme values are distinct keys like any other.  A
    {!touch} of a triple already seen allocates nothing, and the sharing
    queries are O(1). *)

type t

val create : unit -> t
val touch : t -> thread:int -> file:int -> block:int -> unit

val requests : t -> int
(** Touches recorded (block requests, not distinct blocks). *)

val distinct : t -> thread:int -> file:int -> int
(** 0 for a (thread, file) pair never seen. *)

val total_distinct : t -> thread:int -> int
(** Sum of {!distinct} over all files, per thread. *)

val threads : t -> int
(** [1 + ] the largest thread id seen (0 when empty). *)

val files : t -> int list
(** File ids seen, ascending. *)

val pairs : t -> ((int * int) * int) list
(** [((thread, file), distinct)] for every pair seen, ascending. *)

val per_thread : t -> (int * (int * int) list) list
(** [(thread, [(file, distinct); ...])], both levels ascending. *)

(** {1 Request-level sharing} — over the full request stream, before any
    cache filters it: the observable the compiler's Step II prediction
    addresses directly (an inter-node layout at a matching block size
    assigns every block a single owner, so all three are minimal). *)

val distinct_blocks : t -> int
(** Distinct [(file, block)] pairs any thread touched. *)

val shared_blocks : t -> int
(** Distinct blocks touched by two or more threads. *)

val cross_pairs : t -> int
(** Sum over blocks of [k * (k-1) / 2] where [k] threads touched the block
    — the total unordered thread-pair co-touches. *)

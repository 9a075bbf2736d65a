(* What the driver needs from a workload: one pass of ops in seed order,
   each runnable untraced (the measured path) or traced (split into layer
   spans), plus the table its outputs are checked against. *)

type size =
  | Full  (** the benchmark's stated size *)
  | Tiny  (** a seconds-long smoke size for the benchmark's own tests *)

(* An op's modeled output digest, or why an invariant failed. *)
type outcome = (string, string) result

type op = {
  key : string;  (** expected-table key of [run]'s digest *)
  traced_key : string;  (** expected-table key of [traced]'s digest *)
  run : jobs:int -> outcome;
  traced : Spans.t -> outcome;
}

type t = {
  size_line : string;  (** inputs, size and seed, for the run's header *)
  jobs : int;  (** domain-pool width of the measured ops *)
  pass : op array;  (** one pass, in seed order *)
  expected : Expected.t;
  mutable setup_failed : int;  (** warm-up ops whose check failed *)
}

let config = Flo_engine.Config.default

let size_name = function Full -> "full" | Tiny -> "tiny"

(* Prefix of expected-table keys whose outputs depend on the size. *)
let key_prefix = function Full -> "" | Tiny -> "tiny/"

(* Fisher-Yates under a seed: the sweeps' seed only reorders their ops. *)
let shuffle ~seed a =
  let a = Array.copy a in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let check_outcome expected key = function
  | Ok digest -> Expected.check expected key digest
  | Error _ -> false

(* The set-up warm-up: one op at jobs 1, checked like any other.  At a
   seed with no pinned digest it also seeds the fallback table, so every
   measured op at the workload's jobs must reproduce the jobs-1 output. *)
let warm_up w op =
  if not (check_outcome w.expected op.key (op.run ~jobs:1)) then
    w.setup_failed <- w.setup_failed + 1

(* Per-thread, per-file distinct-block counts — the paper's Step I
   objective (Eq. 4): a thread's I/O working set is the number of distinct
   blocks it touches in each file.

   Three open-addressing tables over unpacked int keys: the seen
   (thread, file, block) triples, the (thread, file) counts and the
   (file, block) degrees.  Keys are stored whole, never packed, so every
   int is a valid thread, file or block.  Block degrees are kept
   incrementally, which makes the request-level sharing queries O(1); a
   touch of a triple already seen allocates nothing. *)

(* Parallel key arrays indexed by probe position, linear probing at load
   factor <= 3/4.  [v] doubles as the occupancy mark: every stored value is
   >= 1.  The two-key tables leave [k3] at 0. *)
type table = {
  mutable k1 : int array;
  mutable k2 : int array;
  mutable k3 : int array;
  mutable v : int array;  (* 0 = empty slot *)
  mutable shift : int;  (* 63 - log2 (Array.length v) *)
  mutable len : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let table_create size =
  {
    k1 = Array.make size 0;
    k2 = Array.make size 0;
    k3 = Array.make size 0;
    v = Array.make size 0;
    shift = 63 - log2 size;
    len = 0;
  }

(* Fibonacci hashing of the three keys folded together: the high bits of
   the product feed the bucket, so every key bit counts *)
let golden = 0x2545_f491_4f6c_dd1d

let home t a b c = (((((a * golden) + b) * golden) + c) * golden) lsr t.shift

(* the slot holding (a, b, c), or the empty slot ending its probe run *)
let probe t a b c =
  let mask = Array.length t.v - 1 in
  let i = ref (home t a b c) in
  while t.v.(!i) <> 0 && not (t.k1.(!i) = a && t.k2.(!i) = b && t.k3.(!i) = c) do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let k1 = t.k1 and k2 = t.k2 and k3 = t.k3 and v = t.v in
  let size = 2 * Array.length v in
  t.k1 <- Array.make size 0;
  t.k2 <- Array.make size 0;
  t.k3 <- Array.make size 0;
  t.v <- Array.make size 0;
  t.shift <- 63 - log2 size;
  for i = 0 to Array.length v - 1 do
    if v.(i) <> 0 then begin
      let j = probe t k1.(i) k2.(i) k3.(i) in
      t.k1.(j) <- k1.(i);
      t.k2.(j) <- k2.(i);
      t.k3.(j) <- k3.(i);
      t.v.(j) <- v.(i)
    end
  done

(* store (a, b, c) -> 1 in the empty slot [i] that [probe] returned *)
let add t i a b c =
  t.k1.(i) <- a;
  t.k2.(i) <- b;
  t.k3.(i) <- c;
  t.v.(i) <- 1;
  t.len <- t.len + 1;
  if 4 * t.len > 3 * Array.length t.v then grow t

type t = {
  seen : table;  (* (thread, file, block) *)
  counts : table;  (* (thread, file) -> distinct blocks *)
  degrees : table;  (* (file, block) -> distinct threads *)
  mutable requests : int;
  mutable threads : int;
  mutable shared : int;  (* blocks of degree >= 2 *)
  mutable pairs : int;  (* sum of deg * (deg - 1) / 2 *)
}

let create () =
  {
    seen = table_create 2048;
    counts = table_create 128;
    degrees = table_create 2048;
    requests = 0;
    threads = 0;
    shared = 0;
    pairs = 0;
  }

let touch t ~thread ~file ~block =
  t.requests <- t.requests + 1;
  let seen = t.seen in
  let i = probe seen thread file block in
  if seen.v.(i) = 0 then begin
    add seen i thread file block;
    let counts = t.counts in
    let i = probe counts thread file 0 in
    if counts.v.(i) = 0 then begin
      add counts i thread file 0;
      t.threads <- max t.threads (thread + 1)
    end
    else counts.v.(i) <- counts.v.(i) + 1;
    (* a new toucher of the block pairs with each earlier one *)
    let degrees = t.degrees in
    let i = probe degrees file block 0 in
    let deg = degrees.v.(i) in
    if deg = 0 then add degrees i file block 0
    else begin
      t.pairs <- t.pairs + deg;
      if deg = 1 then t.shared <- t.shared + 1;
      degrees.v.(i) <- deg + 1
    end
  end

let requests t = t.requests

let distinct t ~thread ~file =
  let c = t.counts in
  c.v.(probe c thread file 0)

let threads t = t.threads

let fold_counts t f init =
  let c = t.counts in
  let acc = ref init in
  for i = 0 to Array.length c.v - 1 do
    if c.v.(i) <> 0 then acc := f !acc c.k1.(i) c.k2.(i) c.v.(i)
  done;
  !acc

let pairs t =
  List.sort compare (fold_counts t (fun acc th f n -> ((th, f), n) :: acc) [])

let files t = List.sort_uniq compare (fold_counts t (fun acc _ f _ -> f :: acc) [])

let per_thread t =
  List.fold_right
    (fun ((th, f), n) acc ->
      match acc with
      | (th', l) :: rest when th' = th -> (th, (f, n) :: l) :: rest
      | _ -> (th, [ (f, n) ]) :: acc)
    (pairs t) []

let total_distinct t ~thread =
  fold_counts t (fun acc th _ n -> if th = thread then acc + n else acc) 0

let distinct_blocks t = t.degrees.len
let shared_blocks t = t.shared
let cross_pairs t = t.pairs

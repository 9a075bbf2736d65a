open Flo_linalg
open Flo_poly

let plan_of ~threads ~blocks_per_thread ?assign ?cluster nest =
  let u = nest.Loop_nest.parallel_dim in
  let extent = Iter_space.extent nest.Loop_nest.space u in
  let num_blocks = min (threads * blocks_per_thread) extent in
  match assign with
  | None -> Parallelize.custom ~threads ~num_blocks ~assign:(fun b -> b mod threads) nest
  | Some strategy ->
    let cluster =
      match cluster with
      | Some c -> c
      | None -> invalid_arg "Tracegen: assign requires cluster"
    in
    Parallelize.custom ~threads ~num_blocks
      ~assign:(fun b -> Compmap.assign strategy ~cluster ~threads ~num_blocks b)
      nest

(* Strength reduction: every quantity a request depends on is affine in the
   iteration vector.

   - Canonical layouts are globally linear in the element coordinates
     (File_layout.linear_strides), and the element coordinates are affine
     in the iteration vector, so the file offset itself is one affine
     functional w . i + c: stepping the innermost loop adds w_inner,
     carrying into an outer loop adds a precomputable carry delta.  No
     per-element vector allocation, no transform, no division — the block
     index only needs a division when the offset leaves the current
     block's [lo, lo + block_elems) window.

   - The inter-node layout is piecewise linear: its two inputs vv (the
     partition coordinate of D a + shift) and lin_rest (the row-major
     linearization of the other coordinates) are each affine in the
     iteration vector, so the same cursor machinery tracks them and
     File_layout.offset_of_transformed finishes the job on memoized Step II
     parameters.

   Requests go into a caller-owned growable int buffer (files/indices
   pairs), with a per-file last-block array deciding the collapse. *)

(* one affine functional w . i + c over the iteration space, evaluated
   incrementally along the lexicographic walk *)
type functional = { w : int array; c : int }

type offset_fn =
  | Linear of functional
  | Inter of { il : File_layout.internode; vv : functional; lr : functional }

(* per-reference walk state; everything but the mutable fields is fixed at
   [create] *)
type cursor = {
  file : int;
  fn : offset_fn;
  (* the reference a = M i + q and its array's extents, for the per-slice
     range check *)
  mat : Imat.t;
  const : Ivec.t;
  ext : int array;
  mutable cur_off : int;  (* Linear: current offset *)
  mutable cur_vv : int;  (* Inter: current vv *)
  mutable cur_lr : int;  (* Inter: current lin_rest *)
  (* carry deltas for the current block slice, one per loop dimension *)
  off_delta : int array;
  vv_delta : int array;
  lr_delta : int array;
  (* current block window: index valid while cur_off in [blk_lo, blk_lo +
     block_elems) *)
  mutable blk_lo : int;
  mutable blk_idx : int;
}

(* w . i + c for the access row weighted by [strides]: the layout offset
   (resp. vv / lin_rest component) as one functional of the iteration
   vector *)
let compose_functional ~strides mat const =
  let m = Array.length strides in
  let depth = Imat.cols mat in
  let w = Array.make depth 0 in
  for j = 0 to depth - 1 do
    let acc = ref 0 in
    for k = 0 to m - 1 do
      acc := !acc + (strides.(k) * Imat.get mat k j)
    done;
    w.(j) <- !acc
  done;
  let c = ref 0 in
  for k = 0 to m - 1 do
    c := !c + (strides.(k) * const.(k))
  done;
  { w; c = !c }

let unit_strides v m =
  let s = Array.make m 0 in
  s.(v) <- 1;
  s

let offset_fn layout r =
  match File_layout.linear_strides layout with
  | Some strides -> Linear (compose_functional ~strides (Access.matrix r) (Access.offset r))
  | None -> (
    match layout with
    | File_layout.Internode il ->
      (* compose the access with the Step I transform once:
         a'(i) = D (M i + q) + shift = (D M) i + (D q + shift) *)
      let mat = Imat.mul il.File_layout.d (Access.matrix r) in
      let const =
        Ivec.add (Imat.mul_vec il.File_layout.d (Access.offset r)) il.File_layout.shift
      in
      let m = Imat.rows mat in
      Inter
        {
          il;
          vv = compose_functional ~strides:(unit_strides il.File_layout.v m) mat const;
          lr = compose_functional ~strides:il.File_layout.rest_strides mat const;
        }
    | _ -> assert false (* linear_strides covers every canonical layout *))

let cursor_of_ref ~layouts depth r =
  let file = Access.array_id r in
  let layout = layouts file in
  {
    file;
    fn = offset_fn layout r;
    mat = Access.matrix r;
    const = Access.offset r;
    ext = Data_space.extents (File_layout.space layout);
    cur_off = 0;
    cur_vv = 0;
    cur_lr = 0;
    off_delta = Array.make depth 0;
    vv_delta = Array.make depth 0;
    lr_delta = Array.make depth 0;
    blk_lo = 0;
    blk_idx = 0;
  }

(* Every element of the box [lo, hi] maps into the array: each coordinate
   of M i + q is affine, so its exact extremes over the box are at the
   corners, picked per column by the sign of the coefficient. *)
let check_slice c ~lo ~hi =
  let depth = Array.length lo in
  for k = 0 to Array.length c.ext - 1 do
    let row = c.mat.(k) in
    let mn = ref c.const.(k) and mx = ref c.const.(k) in
    for j = 0 to depth - 1 do
      let a = row.(j) in
      if a >= 0 then begin
        mn := !mn + (a * lo.(j));
        mx := !mx + (a * hi.(j))
      end
      else begin
        mn := !mn + (a * hi.(j));
        mx := !mx + (a * lo.(j))
      end
    done;
    if !mn < 0 || !mx >= c.ext.(k) then invalid_arg "Nest_walk: reference out of range"
  done

(* position the cursor at the lexicographic corner of a slice and
   precompute, per dimension k, the delta of one odometer step at k:
   +w_k for the increment, minus the full unwind of every inner dimension *)
let init_cursor_for_slice c ~lo ~hi =
  let depth = Array.length lo in
  let setup (f : functional) delta =
    let v = ref f.c in
    for j = 0 to depth - 1 do
      v := !v + (f.w.(j) * lo.(j))
    done;
    for k = 0 to depth - 1 do
      let d = ref f.w.(k) in
      for j = k + 1 to depth - 1 do
        d := !d - (f.w.(j) * (hi.(j) - lo.(j)))
      done;
      delta.(k) <- !d
    done;
    !v
  in
  match c.fn with
  | Linear off -> c.cur_off <- setup off c.off_delta
  | Inter { vv; lr; _ } ->
    c.cur_vv <- setup vv c.vv_delta;
    c.cur_lr <- setup lr c.lr_delta

let step_cursor c k =
  match c.fn with
  | Linear _ -> c.cur_off <- c.cur_off + c.off_delta.(k)
  | Inter _ ->
    c.cur_vv <- c.cur_vv + c.vv_delta.(k);
    c.cur_lr <- c.cur_lr + c.lr_delta.(k)

type requests = {
  mutable files : int array;
  mutable indices : int array;
  mutable len : int;
}

let requests () = { files = Array.make 256 0; indices = Array.make 256 0; len = 0 }

(* the only allocations on the hot path are the amortized doublings *)
let push b ~file ~index =
  if b.len = Array.length b.files then begin
    let cap = 2 * b.len in
    let files = Array.make cap 0 and indices = Array.make cap 0 in
    Array.blit b.files 0 files 0 b.len;
    Array.blit b.indices 0 indices 0 b.len;
    b.files <- files;
    b.indices <- indices
  end;
  b.files.(b.len) <- file;
  b.indices.(b.len) <- index;
  b.len <- b.len + 1

type t = {
  plan : Parallelize.t;
  block_elems : int;
  parallel_dim : int;
  limits : int array;  (* per thread: iterations kept under [sample] *)
  cursors : cursor array;
  last : int array;  (* per file: the block the thread last read *)
  space_lo : int array;
  space_hi : int array;
  (* the current slice and the odometer position inside it *)
  lo : int array;
  hi : int array;
  v : int array;
}

let create ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster
    ?(sample = 1) nest =
  if sample < 1 then invalid_arg "Nest_walk.create: sample < 1";
  if block_elems < 1 then invalid_arg "Nest_walk.create: block_elems < 1";
  let plan = plan_of ~threads ~blocks_per_thread ?assign ?cluster nest in
  let space = nest.Loop_nest.space in
  let depth = Iter_space.depth space in
  let cursors =
    Array.of_list (List.map (cursor_of_ref ~layouts depth) nest.Loop_nest.refs)
  in
  let max_file = Array.fold_left (fun m c -> max m c.file) 0 cursors in
  let space_lo = Array.init depth (Iter_space.lo space) in
  let space_hi = Array.init depth (Iter_space.hi space) in
  {
    plan;
    block_elems;
    parallel_dim = nest.Loop_nest.parallel_dim;
    (* profile mode keeps a prefix of each thread's iterations: a prefix
       preserves the contiguity structure a strided subsample would break,
       so sampled evaluations transfer to full runs *)
    limits =
      Array.map (fun n -> (n + sample - 1) / sample) (Parallelize.iterations_per_thread plan);
    cursors;
    last = Array.make (max_file + 1) 0;
    space_lo;
    space_hi;
    lo = Array.copy space_lo;
    hi = Array.copy space_hi;
    v = Array.make depth 0;
  }

exception Done

let walk t ~thread buf =
  buf.len <- 0;
  let block_elems = t.block_elems in
  let cursors = t.cursors and last = t.last in
  let lo = t.lo and hi = t.hi and v = t.v in
  let nrefs = Array.length cursors in
  let depth = Array.length v in
  let u = t.parallel_dim in
  let limit = t.limits.(thread) in
  let kept = ref 0 in
  Array.fill last 0 (Array.length last) (-1);
  Array.iter
    (fun c ->
      (* an empty window below every valid (nonnegative) offset, chosen so
         [off - blk_lo] cannot overflow *)
      c.blk_lo <- -block_elems;
      c.blk_idx <- -1)
    cursors;
  (* the per-file collapse: the I/O runtime buffers one block per open file,
     so a request is only issued when a reference leaves the block it last
     read from that file *)
  let visit () =
    if !kept >= limit then raise Done;
    incr kept;
    for r = 0 to nrefs - 1 do
      let c = cursors.(r) in
      let off =
        match c.fn with
        | Linear _ -> c.cur_off
        | Inter { il; _ } ->
          File_layout.offset_of_transformed il ~vv:c.cur_vv ~lin_rest:c.cur_lr
      in
      let index =
        if off >= c.blk_lo && off - c.blk_lo < block_elems then c.blk_idx
        else begin
          let i = off / block_elems in
          c.blk_idx <- i;
          c.blk_lo <- i * block_elems;
          i
        end
      in
      let file = c.file in
      if last.(file) <> index then begin
        last.(file) <- index;
        push buf ~file ~index
      end
    done
  in
  try
    List.iter
      (fun b ->
        let blo, bhi = Parallelize.block_range t.plan b in
        let blo = max blo t.space_lo.(u) and bhi = min bhi t.space_hi.(u) in
        if blo <= bhi then begin
          if !kept >= limit then raise Done;
          lo.(u) <- blo;
          hi.(u) <- bhi;
          Array.blit lo 0 v 0 depth;
          Array.iter
            (fun c ->
              check_slice c ~lo ~hi;
              init_cursor_for_slice c ~lo ~hi)
            cursors;
          visit ();
          (* odometer over the slice in lexicographic order: find the
             deepest incrementable dimension, bump it, reset the inner
             ones — each cursor absorbs the whole step as one add *)
          let continue = ref true in
          while !continue do
            let k = ref (depth - 1) in
            while !k >= 0 && v.(!k) = hi.(!k) do
              decr k
            done;
            if !k < 0 then continue := false
            else begin
              let k = !k in
              v.(k) <- v.(k) + 1;
              for j = k + 1 to depth - 1 do
                v.(j) <- lo.(j)
              done;
              for r = 0 to nrefs - 1 do
                step_cursor cursors.(r) k
              done;
              visit ()
            end
          done
        end)
      (Parallelize.blocks_of_thread t.plan thread)
  with Done -> ()

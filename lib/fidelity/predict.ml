open Flo_poly
open Flo_core
open Flo_analysis

type layer_expect = {
  level : int;
  capacity : int;
  fanout : int;
  reps : int;
  threads_sharing : int;
  chunks_per_thread : int;
  capacity_blocks : int;
}

type array_prediction = {
  array_id : int;
  array_name : string;
  layout : string;
  optimized : bool;
  chunk_elems : int option;
  block_aligned : bool;
  layers : layer_expect list;
}

type t = {
  app : string;
  threads : int;
  block_elems : int;
  blocks_per_thread : int;
  sample : int;
  arrays : array_prediction list;
  distinct : ((int * int) * int) list;
  cross_shared_blocks : int;
  cross_pairs : int;
  distinct_blocks : int;
  single_owner : bool;
}

let layer_expectations ~block_elems (p : Chunk_pattern.t) =
  let n = Array.length p.Chunk_pattern.layers in
  List.init n (fun i ->
      let { Chunk_pattern.capacity; fanout } = p.Chunk_pattern.layers.(i) in
      let threads_sharing =
        Array.fold_left
          (fun acc (ly : Chunk_pattern.layer) -> acc * ly.Chunk_pattern.fanout)
          1
          (Array.sub p.Chunk_pattern.layers 0 (i + 1))
      in
      let chunks_per_thread = capacity / threads_sharing / p.Chunk_pattern.chunk in
      {
        level = i + 1;
        capacity;
        fanout;
        reps = (if i < n - 1 then p.Chunk_pattern.reps.(i) else 1);
        threads_sharing;
        chunks_per_thread;
        capacity_blocks = capacity / block_elems;
      })

let array_prediction ~block_elems (decl : Program.array_decl) layout =
  let chunk =
    match layout with
    | File_layout.Internode i -> Some (Chunk_pattern.chunk_elems i.File_layout.pattern)
    | _ -> None
  in
  {
    array_id = decl.Program.id;
    array_name = decl.Program.name;
    layout = File_layout.describe layout;
    optimized = (match layout with File_layout.Internode _ -> true | _ -> false);
    chunk_elems = chunk;
    block_aligned = (match chunk with Some c -> c mod block_elems = 0 | None -> false);
    layers =
      (match layout with
      | File_layout.Internode i ->
        layer_expectations ~block_elems i.File_layout.pattern
      | _ -> []);
  }

(* The walk Tracegen streams, at the model's own [block_elems], counted
   into the distinct-block set the observed side uses. *)
let compute ?(blocks_per_thread = 1) ?(sample = 1) ~block_elems ~threads ~name ~layouts
    (program : Program.t) =
  if sample < 1 then invalid_arg "Predict.compute: sample < 1";
  if block_elems < 1 then invalid_arg "Predict.compute: block_elems < 1";
  let l = Locality.create () in
  let buf = Nest_walk.requests () in
  List.iter
    (fun nest ->
      let walk =
        Nest_walk.create ~layouts ~block_elems ~threads ~blocks_per_thread ~sample nest
      in
      for thread = 0 to threads - 1 do
        Nest_walk.walk walk ~thread buf;
        for i = 0 to buf.Nest_walk.len - 1 do
          Locality.touch l ~thread ~file:buf.Nest_walk.files.(i)
            ~block:buf.Nest_walk.indices.(i)
        done
      done)
    program.Program.nests;
  let arrays =
    List.map
      (fun id -> array_prediction ~block_elems (Program.array_decl program id) (layouts id))
      (Program.array_ids program)
  in
  let cross_shared_blocks = Locality.shared_blocks l in
  {
    app = name;
    threads;
    block_elems;
    blocks_per_thread;
    sample;
    arrays;
    distinct = Locality.pairs l;
    cross_shared_blocks;
    cross_pairs = Locality.cross_pairs l;
    distinct_blocks = Locality.distinct_blocks l;
    single_owner = cross_shared_blocks = 0;
  }

let pp_layer ppf l =
  Format.fprintf ppf "L%d: S=%d N=%d t=%d sharing=%d chunks/thread=%d (%d blocks)"
    l.level l.capacity l.fanout l.reps l.threads_sharing l.chunks_per_thread
    l.capacity_blocks

open Flo_poly
open Flo_storage
open Flo_core

let plan_of = Nest_walk.plan_of

(* ---- naive reference generator ----------------------------------------

   The original per-element implementation: evaluate the access map, run
   the full offset_of transform + division chain, dedup through a Hashtbl,
   accumulate a cons list.  Retained verbatim as the executable
   specification of the stream semantics; the fast path below must be (and
   is tested to be) element-for-element identical to it. *)

let reference_streams ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster
    ?(sample = 1) nest =
  if sample < 1 then invalid_arg "Tracegen.reference_streams: sample < 1";
  let plan = plan_of ~threads ~blocks_per_thread ?assign ?cluster nest in
  let refs =
    List.map (fun r -> (Access.array_id r, layouts (Access.array_id r), r)) nest.Loop_nest.refs
  in
  let totals = Parallelize.iterations_per_thread plan in
  Array.init threads (fun thread ->
      let acc = ref [] in
      let count = ref 0 in
      (* per-file last-block memory: the I/O runtime buffers one block per
         open file, so a request is only issued when a reference leaves the
         block it last read from that file *)
      let last_index = Hashtbl.create 8 in
      let counter = ref 0 in
      (* profile mode keeps a prefix of each thread's iterations: a prefix
         preserves the contiguity structure a strided subsample would break,
         so sampled evaluations transfer to full runs *)
      let limit = (totals.(thread) + sample - 1) / sample in
      Parallelize.iter_thread plan ~thread (fun iter ->
          let keep = !counter < limit in
          incr counter;
          if keep then
            List.iter
              (fun (file, layout, r) ->
                let offset = File_layout.offset_of layout (Access.eval r iter) in
                let index = offset / block_elems in
                if Hashtbl.find_opt last_index file <> Some index then begin
                  Hashtbl.replace last_index file index;
                  acc := Block.make ~file ~index :: !acc;
                  incr count
                end)
              refs);
      let arr = Array.make !count (Block.make ~file:0 ~index:0) in
      let rec fill i = function
        | [] -> ()
        | b :: rest ->
          arr.(i) <- b;
          fill (i - 1) rest
      in
      fill (!count - 1) !acc;
      arr)

(* ---- fast path: the shared walk, materialized as Block.t arrays ------ *)

let nest_streams ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster
    ?(sample = 1) nest =
  if sample < 1 then invalid_arg "Tracegen.nest_streams: sample < 1";
  let walk =
    Nest_walk.create ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster
      ~sample nest
  in
  let buf = Nest_walk.requests () in
  Array.init threads (fun thread ->
      Nest_walk.walk walk ~thread buf;
      Array.init buf.Nest_walk.len (fun i ->
          Block.make ~file:buf.Nest_walk.files.(i) ~index:buf.Nest_walk.indices.(i)))

let iterations_per_thread ~threads ~blocks_per_thread ?(sample = 1) nest =
  let plan = plan_of ~threads ~blocks_per_thread nest in
  let counts = Parallelize.iterations_per_thread plan in
  Array.map (fun c -> (c + sample - 1) / sample) counts

(* The per-element reference for Predict's counting: evaluate every access
   map, run File_layout.offset_of per element, and count distinct
   (thread, file, block) triples in tuple-keyed tables.  No request
   collapse and no strength reduction — the executable specification that
   Predict.compute (the shared nest walk into Locality) is tested against. *)

open Flo_poly
open Flo_core

type counts = {
  distinct : ((int * int) * int) list;  (* ascending *)
  cross_shared_blocks : int;
  cross_pairs : int;
  distinct_blocks : int;
}

let compute ?(blocks_per_thread = 1) ?(sample = 1) ~block_elems ~threads ~layouts
    (program : Program.t) =
  if sample < 1 then invalid_arg "Predict_oracle.compute: sample < 1";
  if block_elems < 1 then invalid_arg "Predict_oracle.compute: block_elems < 1";
  let seen : (int * int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let counts : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let degrees : (int * int, int ref) Hashtbl.t = Hashtbl.create 4096 in
  let touch ~thread ~file ~block =
    let key = (thread, file, block) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      (match Hashtbl.find_opt counts (thread, file) with
      | Some r -> incr r
      | None -> Hashtbl.add counts (thread, file) (ref 1));
      match Hashtbl.find_opt degrees (file, block) with
      | Some r -> incr r
      | None -> Hashtbl.add degrees (file, block) (ref 1)
    end
  in
  List.iter
    (fun (nest : Loop_nest.t) ->
      let u = nest.Loop_nest.parallel_dim in
      let extent = Iter_space.extent nest.Loop_nest.space u in
      let num_blocks = min (threads * blocks_per_thread) extent in
      let plan =
        Parallelize.custom ~threads ~num_blocks ~assign:(fun b -> b mod threads) nest
      in
      let totals = Parallelize.iterations_per_thread plan in
      let refs =
        List.map (fun r -> (Access.array_id r, layouts (Access.array_id r), r))
          nest.Loop_nest.refs
      in
      for thread = 0 to threads - 1 do
        let limit = (totals.(thread) + sample - 1) / sample in
        let counter = ref 0 in
        Parallelize.iter_thread plan ~thread (fun iter ->
            let keep = !counter < limit in
            incr counter;
            if keep then
              List.iter
                (fun (file, layout, r) ->
                  let offset = File_layout.offset_of layout (Access.eval r iter) in
                  touch ~thread ~file ~block:(offset / block_elems))
                refs)
      done)
    program.Program.nests;
  {
    distinct =
      Hashtbl.fold (fun key r acc -> (key, !r) :: acc) counts [] |> List.sort compare;
    cross_shared_blocks =
      Hashtbl.fold (fun _ r acc -> if !r >= 2 then acc + 1 else acc) degrees 0;
    cross_pairs = Hashtbl.fold (fun _ r acc -> acc + (!r * (!r - 1) / 2)) degrees 0;
    distinct_blocks = Hashtbl.length degrees;
  }

open Flo_analysis

type row = { thread : int; file : int; predicted : int; observed : int }

type layer_row = {
  cache : string;
  observed_cross : int;
  predicted_bound : int;
  violated : bool;
}

type t = {
  app : string;
  tolerance : float;
  predict : Predict.t;
  rows : row list;
  predicted_cross_shared : int;
  observed_cross_shared : int;
  predicted_cross_pairs : int;
  observed_cross_pairs : int;
  layer_rows : layer_row list;
}

let abs_drift r = abs (r.observed - r.predicted)

let rel_drift r =
  if r.predicted = 0 && r.observed = 0 then 0.
  else if r.predicted = 0 then infinity
  else
    float_of_int (abs (r.observed - r.predicted)) /. float_of_int r.predicted

let flagged_row ~tolerance r = rel_drift r > tolerance

let join ?(tolerance = 0.) ~predict ~observed () =
  if tolerance < 0. then invalid_arg "Fidelity.join: negative tolerance";
  let l = Analyzer.locality observed in
  (* merge the two ascending [((thread, file), distinct)] lists: the rows
     cover the union of keys, since a pair only one side knows about is
     itself drift *)
  let row (thread, file) predicted observed = { thread; file; predicted; observed } in
  let rec merge acc p o =
    match (p, o) with
    | [], [] -> List.rev acc
    | (k, n) :: p', [] -> merge (row k n 0 :: acc) p' []
    | [], (k, n) :: o' -> merge (row k 0 n :: acc) [] o'
    | (kp, np) :: p', (ko, no) :: o' ->
      let c = compare (kp : int * int) ko in
      if c = 0 then merge (row kp np no :: acc) p' o'
      else if c < 0 then merge (row kp np 0 :: acc) p' o
      else merge (row ko 0 no :: acc) p o'
  in
  let rows = merge [] predict.Predict.distinct (Locality.pairs l) in
  (* a cache only sees the subset of the request stream that reaches it, so
     request-level predicted sharing upper-bounds every layer's observed
     sharing; an excess is a model violation (mis-attributed residency) *)
  let layer_rows =
    List.filter_map
      (fun c ->
        match Analyzer.sharing_of observed c with
        | None -> None
        | Some s ->
          let observed_cross = Sharing.cross_shared s in
          Some
            {
              cache = Analyzer.cache_name c;
              observed_cross;
              predicted_bound = predict.Predict.cross_pairs;
              violated = observed_cross > predict.Predict.cross_pairs;
            })
      (Analyzer.caches observed)
  in
  {
    app = predict.Predict.app;
    tolerance;
    predict;
    rows;
    predicted_cross_shared = predict.Predict.cross_shared_blocks;
    observed_cross_shared = Locality.shared_blocks l;
    predicted_cross_pairs = predict.Predict.cross_pairs;
    observed_cross_pairs = Locality.cross_pairs l;
    layer_rows;
  }

let flagged t = List.filter (flagged_row ~tolerance:t.tolerance) t.rows

let max_abs_drift t = List.fold_left (fun acc r -> max acc (abs_drift r)) 0 t.rows

let max_rel_drift t = List.fold_left (fun acc r -> Float.max acc (rel_drift r)) 0. t.rows

let sharing_drift t = abs (t.observed_cross_shared - t.predicted_cross_shared)

let pairs_drift t = abs (t.observed_cross_pairs - t.predicted_cross_pairs)

let layer_violations t = List.filter (fun lr -> lr.violated) t.layer_rows

let sharing_rel_drift t =
  if t.predicted_cross_shared = 0 && t.observed_cross_shared = 0 then 0.
  else if t.predicted_cross_shared = 0 then infinity
  else
    float_of_int (sharing_drift t) /. float_of_int t.predicted_cross_shared

let ok t =
  flagged t = []
  && sharing_rel_drift t <= t.tolerance
  && layer_violations t = []

let record t registry =
  let labels = [ ("app", t.app) ] in
  let set name v =
    Flo_obs.Metrics.set_gauge (Flo_obs.Metrics.gauge registry ~labels name) v
  in
  set "fidelity.distinct.max_abs_drift" (float_of_int (max_abs_drift t));
  set "fidelity.distinct.max_rel_drift" (max_rel_drift t);
  set "fidelity.sharing.abs_drift" (float_of_int (sharing_drift t));
  set "fidelity.sharing.pairs_drift" (float_of_int (pairs_drift t));
  set "fidelity.flagged_rows" (float_of_int (List.length (flagged t)));
  set "fidelity.layer_violations" (float_of_int (List.length (layer_violations t)))

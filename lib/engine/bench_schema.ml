(* Machine-readable benchmark trajectory: a versioned JSON manifest of the
   numbers one `bench -- json` invocation produced, plus the diff/gating
   logic `flopt bench-diff` applies between two manifests. *)

module Json = Flo_obs.Json

let schema_name = "flopt-bench"
let schema_version = 1

type metric = {
  app : string;
  name : string;
  value : float;
  unit_ : string;
  gated : bool;
}

type t = {
  version : int;
  apps : string list;
  sample : int;
  block_elems : int;
  threads : int;
  metrics : metric list;
}

let make ~apps ~sample ~block_elems ~threads metrics =
  { version = schema_version; apps; sample; block_elems; threads; metrics }

let metric_key m = (m.app, m.name)

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    if t.version = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported schema version %d (expected %d)" t.version
           schema_version)
  in
  let* () = if t.apps = [] then Error "no apps recorded" else Ok () in
  let* () =
    if t.sample >= 1 && t.block_elems >= 1 && t.threads >= 1 then Ok ()
    else Error "non-positive config field"
  in
  let* () =
    match List.find_opt (fun m -> Float.is_nan m.value) t.metrics with
    | Some m -> Error (Printf.sprintf "metric %s/%s is NaN" m.app m.name)
    | None -> Ok ()
  in
  let seen = Hashtbl.create 64 in
  let rec dups = function
    | [] -> Ok ()
    | m :: rest ->
      if Hashtbl.mem seen (metric_key m) then
        Error (Printf.sprintf "duplicate metric %s/%s" m.app m.name)
      else begin
        Hashtbl.add seen (metric_key m) ();
        dups rest
      end
  in
  dups t.metrics

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Num (float_of_int t.version));
      ( "config",
        Json.Obj
          [
            ("apps", Json.Arr (List.map (fun a -> Json.Str a) t.apps));
            ("sample", Json.Num (float_of_int t.sample));
            ("block_elems", Json.Num (float_of_int t.block_elems));
            ("threads", Json.Num (float_of_int t.threads));
          ] );
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("app", Json.Str m.app);
                   ("name", Json.Str m.name);
                   ("value", Json.Num m.value);
                   ("unit", Json.Str m.unit_);
                   ("gated", Json.Bool m.gated);
                 ])
             t.metrics) );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let* schema = Json.(field "schema" str) j in
  let* () =
    if schema = schema_name then Ok ()
    else Error (Printf.sprintf "not a %s manifest (schema %S)" schema_name schema)
  in
  let* version = Json.(field "version" int) j in
  let config name d = Json.field "config" (Json.field name d) j in
  let* apps = config "apps" Json.(list str) in
  let* sample = config "sample" Json.int in
  let* block_elems = config "block_elems" Json.int in
  let* threads = config "threads" Json.int in
  let metric m =
    let* app = Json.(field "app" str) m in
    let* name = Json.(field "name" str) m in
    let* value = Json.(field "value" num) m in
    let* unit_ = Json.(field "unit" str) m in
    let* gated = Json.(field "gated" bool) m in
    Ok { app; name; value; unit_; gated }
  in
  let* metrics = Json.(field "metrics" (list metric)) j in
  let t = { version; apps; sample; block_elems; threads; metrics } in
  let* () = validate t in
  Ok t

(* Atomic and durable: write a side file, fsync it, and rename it onto
   [path] only after a successful close — an interrupted save (crash, ^C,
   full disk, power loss) can never leave a truncated manifest where a
   baseline used to be. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (Json.to_string (to_json t));
         output_char oc '\n';
         flush oc;
         try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ())
   with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

(* Total: the parser's depth cap plus [of_json]'s field checks mean any
   byte string — truncated, binary, deeply nested — lands in [Error]. *)
let parse_string = Json.decode of_json

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match parse_string contents with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* -- trajectory diffing -------------------------------------------------- *)

type change = {
  c_app : string;
  c_name : string;
  c_unit : string;
  c_gated : bool;
  old_value : float;
  new_value : float;
  delta_pct : float;
}

type diff = { changes : change list; added : metric list; removed : metric list }

(* every recorded metric is a cost (time, misses, sharing, drift): higher is
   worse, so the sign of delta_pct is the direction of the regression *)
let delta_pct ~old_value ~new_value =
  if old_value = 0. then (if new_value = 0. then 0. else infinity)
  else (new_value -. old_value) /. old_value *. 100.

let diff ~old_ ~new_ =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace old_tbl (metric_key m) m) old_.metrics;
  let changes, added =
    List.fold_left
      (fun (changes, added) m ->
        match Hashtbl.find_opt old_tbl (metric_key m) with
        | None -> (changes, m :: added)
        | Some o ->
          Hashtbl.remove old_tbl (metric_key m);
          ( {
              c_app = m.app;
              c_name = m.name;
              c_unit = m.unit_;
              c_gated = m.gated;
              old_value = o.value;
              new_value = m.value;
              delta_pct = delta_pct ~old_value:o.value ~new_value:m.value;
            }
            :: changes,
            added ))
      ([], []) new_.metrics
  in
  let removed =
    List.filter (fun m -> Hashtbl.mem old_tbl (metric_key m)) old_.metrics
  in
  { changes = List.rev changes; added = List.rev added; removed }

let regressions ?(threshold = 0.) d =
  List.filter (fun c -> c.c_gated && c.delta_pct > threshold) d.changes

let improvements ?(threshold = 0.) d =
  List.filter (fun c -> c.c_gated && c.delta_pct < -.threshold) d.changes

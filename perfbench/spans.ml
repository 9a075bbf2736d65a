(* In-memory span recorder for the traced run.

   Every traced op opens a root span named "op"; each call into a layer is
   a child span named after the layer.  A span records its name, wall
   start and end, parent, op id, and the words allocated while it was
   open.  Derived spans carry a duration computed from other spans (e.g.
   the kernel compile inside [Engine.simulate]); they are flagged so the
   report can label them.  Self time is a span's duration minus its
   children's.  Nothing is written until [write_jsonl] at the end of the
   run. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for an op's root span *)
  start : float;
  mutable stop : float;
  alloc0 : float;
  mutable alloc1 : float;
  derived : bool;
}

type t = {
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : span list;  (* open spans, innermost first *)
  mutable op : int;
  counters : (string, float) Hashtbl.t;
}

let create () =
  {
    origin = Meter.now ();
    spans = [];
    next = 0;
    stack = [];
    op = -1;
    counters = Hashtbl.create 16;
  }

let push t s =
  t.next <- t.next + 1;
  t.spans <- s :: t.spans

(* Allocation is read outside the clock readings: the minor collection
   a reading forces is charged to the parent span, not to this one. *)
let open_span t ~name ~parent =
  let alloc0 = Meter.alloc_words () in
  let s =
    {
      id = t.next;
      name;
      op = t.op;
      parent;
      start = Meter.now ();
      stop = nan;
      alloc0;
      alloc1 = nan;
      derived = false;
    }
  in
  push t s;
  t.stack <- s :: t.stack;
  s

let close_span t s =
  s.stop <- Meter.now ();
  s.alloc1 <- Meter.alloc_words ();
  match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Spans.close_span: spans must nest"

let span t name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s = open_span t ~name ~parent in
  match f () with
  | v ->
    close_span t s;
    (v, s.id)
  | exception e ->
    close_span t s;
    raise e

let with_span t name f = fst (span t name f)

let op t id f =
  t.op <- id;
  with_span t "op" f

let find t id = List.find (fun s -> s.id = id) t.spans

(* A child of [parent] whose duration and allocation were measured
   elsewhere, placed at the parent's start. *)
let derived t ~parent name ~dur_s ~alloc_words =
  let p = find t parent in
  let s =
    {
      id = t.next;
      name;
      op = p.op;
      parent;
      start = p.start;
      stop = p.start +. dur_s;
      alloc0 = 0.;
      alloc1 = alloc_words;
      derived = true;
    }
  in
  push t s

(* A child of the innermost open span timed at a seam inside one call
   (e.g. the first event a sink receives), from its own clock readings. *)
let interval t name ~start ~stop ~alloc0 ~alloc1 =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  push t { id = t.next; name; op = t.op; parent; start; stop; alloc0; alloc1; derived = false }

let duration s = s.stop -. s.start
let alloc s = s.alloc1 -. s.alloc0
let duration_of t id = duration (find t id)
let alloc_of t id = alloc (find t id)

let count t name n =
  Hashtbl.replace t.counters name
    (n +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.)

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.

type row = {
  layer : string;
  self_s : float;
  self_alloc_words : float;
  is_derived : bool;
}

(* Self time and self allocation per span name, in first-seen order.  The
   root spans' self time is the part of the traced wall no layer span
   covers; it is reported under "uncovered". *)
let rows t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    t.spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let self_s = List.fold_left (fun a c -> a -. duration c) (duration s) kids in
      let self_a = List.fold_left (fun a c -> a -. alloc c) (alloc s) kids in
      let layer = if s.parent < 0 then "uncovered" else s.name in
      match Hashtbl.find_opt acc layer with
      | Some r ->
        Hashtbl.replace acc layer
          { r with self_s = r.self_s +. self_s;
                   self_alloc_words = r.self_alloc_words +. self_a }
      | None ->
        order := layer :: !order;
        Hashtbl.replace acc layer
          { layer; self_s; self_alloc_words = self_a; is_derived = s.derived })
    (List.rev t.spans);
  List.rev_map (Hashtbl.find acc) !order

let traced_wall t =
  List.fold_left (fun a s -> if s.parent < 0 then a +. duration s else a) 0. t.spans

let busy_s t layer =
  match List.find_opt (fun r -> r.layer = layer) (rows t) with
  | Some r -> r.self_s
  | None -> 0.

let alloc_words t layer =
  match List.find_opt (fun r -> r.layer = layer) (rows t) with
  | Some r -> r.self_alloc_words
  | None -> 0.

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let write_jsonl t path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%s,\
             \"end_s\":%s,\"alloc_words\":%s,\"derived\":%b}\n"
            s.id s.op s.parent s.name
            (json_float (s.start -. t.origin))
            (json_float (s.stop -. t.origin))
            (json_float (alloc s)) s.derived)
        (List.rev t.spans))

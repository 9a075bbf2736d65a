(* flobench: the flopt performance benchmark.

     flobench --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--jobs J] [--passes P] [--spans-out FILE]
     flobench --pin DIR [--workload NAME]

   Prints human-readable lines, then one JSON object as the last line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1, the per-layer ones
   from a traced run (spans are written to --spans-out, by default
   .perfbench/spans-NAME-seedN.jsonl).  --pin regenerates the expected
   output tables and cross-checks them against the oracles.  Exit codes:
   0 ok (even with failed checks, which the JSON reports), 1 pin
   disagreement, 2 bad usage. *)

let started = Unix.gettimeofday ()

let usage () =
  prerr_endline
    "usage: flobench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] \
     [--jobs J] [--passes P] [--spans-out FILE]\n\
    \       flobench --pin DIR [--workload NAME]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let known =
    [ "workload"; "seed"; "seconds"; "trace"; "size"; "jobs"; "passes"; "spans-out"; "pin" ]
  in
  Hashtbl.iter (fun k _ -> if not (List.mem k known) then usage ()) args;
  let get k = Hashtbl.find_opt args k in
  let int k = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (get k) in
  let workloads = List.map fst Perfbench.Driver.workloads in
  match get "pin" with
  | Some dir ->
    let names = match get "workload" with Some w -> [ w ] | None -> workloads in
    if not (List.for_all (fun w -> List.mem w workloads) names) then usage ();
    exit (if Perfbench.Pin.run ~dir ~workloads:names then 0 else 1)
  | None ->
    let workload =
      match get "workload" with Some w when List.mem w workloads -> w | _ -> usage ()
    in
    let seed = Option.value (int "seed") ~default:42 in
    let trace = match get "trace" with None | Some "0" -> false | Some "1" -> true | _ -> usage () in
    let size =
      match get "size" with
      | None | Some "full" -> Perfbench.Workload.Full
      | Some "tiny" -> Perfbench.Workload.Tiny
      | _ -> usage ()
    in
    let budget =
      match (int "passes", get "seconds") with
      | Some p, _ when p >= 1 -> Perfbench.Driver.Passes p
      | None, Some s -> (
        match float_of_string_opt s with
        | Some s when s > 0. && Float.is_finite s -> Perfbench.Driver.Seconds s
        | _ -> usage ())
      | None, None -> Perfbench.Driver.Seconds 10.
      | _ -> usage ()
    in
    let jobs = match int "jobs" with Some j when j < 1 -> usage () | j -> j in
    let spans_out =
      if not trace then None
      else
        Some
          (Option.value (get "spans-out")
             ~default:(Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" workload seed))
    in
    let r =
      Perfbench.Driver.run ~started ?jobs ?spans_out ~workload ~seed ~size ~budget ~trace ()
    in
    List.iter print_endline r.Perfbench.Driver.lines;
    List.iter
      (fun (name, v) ->
        Printf.printf "  %-24s %16.6g %s\n" name v (Perfbench.Driver.unit_of name))
      r.Perfbench.Driver.metrics;
    print_endline (Perfbench.Driver.to_json r)

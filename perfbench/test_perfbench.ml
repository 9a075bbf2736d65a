(* Tests of the benchmark itself, at the seconds-long tiny size. *)

open Perfbench

let workloads = List.map fst Driver.workloads

let run ?jobs ?(seed = 42) ?(passes = 1) ~trace workload =
  Driver.run ?jobs ~workload ~seed ~size:Workload.Tiny ~budget:(Driver.Passes passes) ~trace ()

let valid_name s =
  let ok c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && String.for_all ok s
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)

let rec find_from text key i =
  let n = String.length key in
  if i + n > String.length text then None
  else if String.sub text i n = key then Some i
  else find_from text key (i + 1)

(* Every "name" value in BENCHMARK.json, in file order. *)
let manifest_names () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let key = "\"name\": \"" in
  let rec scan i acc =
    match find_from text key i with
    | None -> List.rev acc
    | Some j ->
      let start = j + String.length key in
      let stop = String.index_from text start '"' in
      scan stop (String.sub text start (stop - start) :: acc)
  in
  scan 0 []

let names r = List.map fst r.Driver.metrics

let test_metric_names () =
  List.iter
    (fun w ->
      Alcotest.(check (list string)) (w ^ " end-to-end") (List.map fst Driver.end_to_end)
        (names (run ~trace:false w));
      Alcotest.(check (list string)) (w ^ " per-layer") (List.map fst Driver.per_layer)
        (names (run ~trace:true w)))
    workloads;
  List.iter
    (fun (n, _) -> Alcotest.(check bool) (n ^ " is a valid name") true (valid_name n))
    (Driver.end_to_end @ Driver.per_layer);
  Alcotest.(check (list string)) "BENCHMARK.json names"
    (workloads @ List.map fst Driver.end_to_end @ List.map fst Driver.per_layer)
    (manifest_names ())

let count_metrics =
  [ "optimizer.calls"; "kernel.compiles"; "kernel.used_frac"; "tracer.traces";
    "tracer.spans"; "report.bytes" ]

(* The JSON line of one flobench process, and a field or metric value
   from it as printed. *)
let flobench args =
  let out = Filename.temp_file "flobench" ".out" in
  let cmd = Printf.sprintf "./flobench.exe %s > %s" args (Filename.quote out) in
  Alcotest.(check int) cmd 0 (Sys.command cmd);
  let ic = open_in_bin out in
  let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Sys.remove out;
  List.find (fun l -> String.starts_with ~prefix:"{\"correct\"" l) lines

let field json key =
  match find_from json key 0 with
  | None -> Alcotest.failf "%s missing from %s" key json
  | Some i ->
    let start = i + String.length key in
    let stop = ref start in
    while not (List.mem json.[!stop] [ ','; '}' ]) do incr stop done;
    String.sub json start (!stop - start)

let metric json name = field json (Printf.sprintf "\"%s\": {\"value\": " name)

(* Each run is its own process, as in a benchmark run: a process's first
   measured region also pays one-time runtime initialisation. *)
let test_repeat_at_jobs_1 () =
  List.iter
    (fun w ->
      let args trace =
        Printf.sprintf "--workload %s --seed 42 --size tiny --jobs 1 --passes 2 --trace %d" w trace
      in
      let a = flobench (args 0) and b = flobench (args 0) in
      List.iter
        (fun key -> Alcotest.(check string) (w ^ " " ^ key) (field a key) (field b key))
        [ "\"attempted\": "; "\"failed\": " ];
      Alcotest.(check string) (w ^ " alloc_mb_per_op")
        (metric a "alloc_mb_per_op") (metric b "alloc_mb_per_op");
      let a = flobench (args 1) and b = flobench (args 1) in
      List.iter
        (fun m -> Alcotest.(check string) (w ^ " " ^ m) (metric a m) (metric b m))
        count_metrics)
    workloads

(* Seed 42 has pinned outputs at the tiny size; seed 7 exercises the
   fallback checks. *)
let test_smoke () =
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          List.iter
            (fun trace ->
              let r = run ~seed ~trace w in
              let label = Printf.sprintf "%s seed %d trace %b" w seed trace in
              Alcotest.(check int) (label ^ " failed") 0 r.Driver.failed;
              Alcotest.(check bool) (label ^ " attempted") true (r.Driver.attempted >= 2);
              if not trace then
                Alcotest.(check (float 0.)) (label ^ " ok_frac") 1.
                  (List.assoc "ok_frac" r.Driver.metrics))
            [ false; true ])
        workloads)
    [ 42; 7 ]

let test_pinned () =
  List.iter
    (fun (table, key) ->
      Alcotest.(check bool) key true (Expected.is_pinned (Expected.parse table) key))
    [
      (Expected_data.suite_sweep, "swim/inter");
      (Expected_data.suite_sweep, "swim/inter#kernel_bench");
      (Expected_data.fidelity_sweep, "mgrid");
      (Expected_data.traffic_fleet, "seed=1");
      (Expected_data.traffic_fleet, "tiny/seed=42");
      (Expected_data.overload_storm, "seed=1/load=16");
      (Expected_data.overload_storm, "tiny/seed=42/load=1");
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "counts and allocation repeat exactly at jobs 1" `Quick
            test_repeat_at_jobs_1;
          Alcotest.test_case "every workload emits every metric by a valid name" `Quick
            test_metric_names;
          Alcotest.test_case "tiny smoke run of all workloads has no failed check" `Quick
            test_smoke;
          Alcotest.test_case "expected outputs are pinned" `Quick test_pinned;
        ] );
    ]

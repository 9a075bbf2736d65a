(* Process-level measurements: wall clock, the host probe, GC allocation,
   peak RSS, and the order statistics the driver reports. *)

let now () = Unix.gettimeofday ()

(* The host probe.  The benchmark's host is shared: for minutes at a time
   it runs memory-bound code up to 60% slower while its arithmetic speed
   holds, and every workload here slows with it.  The probe is a fixed
   memory-bound kernel, a dependent random walk over a 4 MB table.  Of
   the probe kernels tried on the 2-vCPU machine the benchmark was
   sized on (walks over 0.5 to 64 MB, list allocation, an arithmetic loop),
   its time followed the workloads' slow phases most closely.  The driver
   times it after every pass and every set-up, and scales their times by
   [probe_nominal_s] over the probe's time.  The table is off the OCaml
   heap and the walk allocates nothing, so neither the program's heap nor
   its collector can move the probe's time. *)
let probe_words = 1 lsl 19
let probe_steps = 300_000

(* The probe's typical time on the machine the benchmark was sized on; it
   fixes the scale of the scaled times, not their spread. *)
let probe_nominal_s = 0.03

let probe_table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     let x = ref 1 in
     for i = 0 to probe_words - 1 do
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       t.{i} <- !x
     done;
     t)

(* Wall seconds of one probe. *)
let probe () =
  let t = Lazy.force probe_table in
  let mask = probe_words - 1 in
  let t0 = now () in
  let j = ref 0 in
  for i = 1 to probe_steps do
    j := (t.{!j} + i) land mask
  done;
  ignore (Sys.opaque_identity !j);
  now () -. t0

(* A wall time scaled to the nominal probe time. *)
let scaled ~probe_s x = x *. probe_nominal_s /. probe_s

(* Words allocated so far by this process.  [Gc.quick_stat] includes the
   allocation of worker domains that have already been joined, which
   [Gc.minor_words] alone misses at [jobs > 1]; but it counts this
   domain's minor allocation only up to its last minor collection, so one
   is forced first.  The reading is exact, and repeats exactly across
   identical regions once [settle] has run before each. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A full major collection, so that a measured region starts from the
   same heap state (and the same collection schedule) every time. *)
let settle () = Gc.full_major ()

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type gc_counts = { minor : int; major : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

(* VmHWM of this process less the probe's table, which is resident from
   the first probe on, in MB (10^6 bytes).  Falls back to the OCaml heap's
   high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
            (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
             | Some kb -> Some (float_of_int kb *. 1024. /. 1e6)
             | None -> scan ())
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb -. float_of_int (probe_words * (Sys.word_size / 8)) /. 1e6
  | None -> mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [pct]% of
   the samples at or below it. *)
let percentile pct xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (float_of_int pct /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The tussle benchmark.

     tussbench --workload battery|chaos|reconverge --seed N --seconds S
               --trace 0|1 [--spans FILE]

   Runs passes of one workload in this process and domain, in a closed
   loop, until another pass would overrun S seconds.  With --trace 0 it
   reports the end-to-end metrics; with --trace 1 it alternates
   untraced and traced passes and reports the per-layer metrics and the
   tracing overhead.  The last line of standard output is one JSON
   object: correct, attempted, failed and metrics.

   --plant-delay-ms, --plant-alloc-kb and --plant-fail-every plant a
   delay, an allocation or a failure in every op's wrapper; the
   sensitivity self-test uses them. *)

open Harness

module type WORKLOAD = sig
  type fixture

  val fixture : int -> fixture
  (** The inputs generated from the workload seed. *)

  val pass : fixture -> traced:bool -> pass
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("battery", (module Battery));
    ("chaos", (module Chaos));
    ("reconverge", (module Reconverge));
  ]

(* Traced passes must account for their wall within this share; the
   same share as the wall_s bound in BENCHMARK.json. *)
let parts_tolerance = 0.2

(* Set-up samples of the fixture, taken before every pass and used when
   the workload's passes take none of their own; each is the mean of
   [fixture_reps] generations. *)
let fixture_samples = 5

let fixture_reps = 200

let run (module W : WORKLOAD) ~seed ~seconds ~trace ~spans_file =
  let sample_fixture () =
    List.init fixture_samples (fun _ ->
        let t0 = now () in
        for _ = 1 to fixture_reps do
          ignore (Sys.opaque_identity (W.fixture seed))
        done;
        (now () -. t0) /. float_of_int fixture_reps)
  in
  let fx = W.fixture seed in
  (* the heap's high-water mark after the first pass: later passes only
     add chances to top it, and their count depends on the host's speed *)
  let peak_heap = ref None in
  let runs =
    run_passes ~seconds ~min_passes:(if trace then 2 else 1) ~alternate:trace
      (fun ~traced ->
        let fixture_setup = sample_fixture () in
        let p = W.pass fx ~traced in
        if !peak_heap = None then peak_heap := Some (peak_heap_mb ());
        if p.setup = [] then { p with setup = fixture_setup } else p)
  in
  let all = List.map (fun r -> r.pass) runs in
  let traced = List.filter_map (fun r -> if r.traced then Some r.pass else None) runs in
  let untraced = List.filter (fun r -> not r.traced) runs in
  let digests = List.sort_uniq compare (List.map (fun p -> p.digest) all) in
  List.iter (Printf.printf "digest %s\n") digests;
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  Printf.printf "passes %d, ops attempted %d, failed %d\n" (List.length all)
    attempted failed;
  let consistent = List.length digests = 1 in
  if not consistent then print_endline "digest differs between passes";
  let metrics, attributed =
    if trace then begin
      let share = unattributed_share traced in
      Option.iter write_spans spans_file;
      ( per_layer ~untraced:(List.map (fun r -> r.pass) untraced) ~traced,
        share <= parts_tolerance )
    end
    else (end_to_end ~peak_heap:(Option.get !peak_heap) untraced, true)
  in
  if not attributed then print_endline "per-layer parts do not add up to wall_s";
  List.iter
    (fun m -> Printf.printf "%-40s %.6g %s\n" m.name m.value m.unit_)
    metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then print_endline "a metric is not finite";
  let correct = consistent && attributed && failed = 0 && finite in
  let metrics =
    List.map
      (fun m -> if Float.is_finite m.value then m else { m with value = -1. })
      metrics
  in
  print_endline (json_line ~correct ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref 1031 and seconds = ref 10. in
  let trace = ref 0 and spans_file = ref None in
  let delay_ms = ref 0. and alloc_kb = ref 0 and fail_every = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME battery, chaos or reconverge");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1031)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--spans", Arg.String (fun f -> spans_file := Some f),
       "FILE write the traced run's spans here (Chrome trace events)");
      ("--plant-delay-ms", Arg.Set_float delay_ms, "MS busy delay in every op");
      ("--plant-alloc-kb", Arg.Set_int alloc_kb, "KB allocation in every op");
      ("--plant-fail-every", Arg.Set_int fail_every, "N fail every Nth op");
    ]
  in
  let usage = "tussbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace must be 0 or 1";
    exit 2
  | Some _ when not (!seconds > 0.) ->
    prerr_endline "--seconds must be positive";
    exit 2
  | Some w ->
    plant :=
      {
        delay_s = !delay_ms /. 1e3;
        alloc_words = !alloc_kb * 1024 / (Sys.word_size / 8);
        fail_every = !fail_every;
      };
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~spans_file:!spans_file

(* Shared machinery for the three workloads: the clock, order
   statistics, the planted faults of the sensitivity self-test, the
   in-memory span recorder, the pass loop and the result line.

   Everything here times and counts from outside the libraries: the
   workloads call public functions and wrap those calls, nothing in
   the libraries is instrumented for the benchmark. *)

let now () = Tussle_obs.Clock.now_s ()

let allocated () = Gc.allocated_bytes ()

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* {1 Planted faults}

   The sensitivity self-test plants a delay, an allocation or a
   failure in the per-op wrapper of a workload — never in the
   libraries — and checks that the matching metrics move. *)

type plant = { delay_s : float; alloc_words : int; fail_every : int }

let plant = ref { delay_s = 0.; alloc_words = 0; fail_every = 0 }

let planted_ops = ref 0

(* The planted delay and allocation. *)
let plant_cost () =
  let p = !plant in
  if p.delay_s > 0. then begin
    let until = now () +. p.delay_s in
    while now () < until do
      ()
    done
  end;
  if p.alloc_words > 0 then
    ignore (Sys.opaque_identity (Array.make p.alloc_words 0))

(* Call inside an op's timed window.  [true] means this op is planted
   to fail. *)
let plant_op () =
  plant_cost ();
  let p = !plant in
  p.fail_every > 0
  && begin
       incr planted_ops;
       !planted_ops mod p.fail_every = 0
     end

(* {1 Spans}

   Recorded by the workloads around their own calls, kept in memory and
   written as Chrome trace events at the end of a traced run.  Spans of
   one op share the op span as parent. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans = ref []

let span_count = ref 0

let fresh_span () =
  incr span_count;
  !span_count

let record ?(parent = 0) ?id name t0 t1 =
  let id = match id with Some i -> i | None -> fresh_span () in
  spans := { id; parent; name; t0; t1 } :: !spans;
  id

let write_spans path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* {1 Passes} *)

type pass = {
  wall_s : float;  (** timed work of the pass *)
  alloc_bytes : float;  (** [Gc.allocated_bytes] delta over the timed work *)
  setup : float list;  (** set-up samples taken by this pass, seconds *)
  blocks : float list;
      (** the timed work cut into consecutive blocks, seconds; every
          pass of a run cuts the same work into the same blocks *)
  ops : float list;  (** per-op host latency, seconds, in op order *)
  attempted : int;
  failed : int;
  digest : string;  (** hex digest of the simulated results *)
  parts_s : float;  (** sum of the per-layer parts (traced passes) *)
  layers : (string * float) list;  (** per-layer values (traced passes) *)
}

(* {1 Host speed}

   On a shared host, speed wanders by tens of percent over minutes as
   other tenants come and go.  A fixed reference kernel — the
   benchmark's own code, which no change to the program touches — is
   timed after every pass.  It allocates and sorts like the simulator
   does, so the same contention slows both.  Each pass's end-to-end
   times are scaled by the kernel times next to it, to a host on which
   the kernel takes [nominal_reference_s]. *)

let nominal_reference_s = 0.1

let reference_kernel () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  let x = ref 12345 in
  for i = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0xffff) i;
    l := (!x, float_of_int i) :: !l
  done;
  let a = Array.of_list !l in
  Array.sort compare a;
  ignore (Sys.opaque_identity (a, h))

(* Full collections on either side keep the kernel off the garbage of
   the pass before it, and start every pass from the same clean heap. *)
let time_reference () =
  Gc.full_major ();
  let t0 = now () in
  reference_kernel ();
  let t = now () -. t0 in
  Gc.full_major ();
  t

type run = {
  traced : bool;
  host : float;
      (** how much slower than nominal the host ran around this pass:
          the mean of the reference times before and after it (only
          after, for the first pass), over [nominal_reference_s] *)
  pass : pass;
}

(* Run [pass traced] until starting another would overrun [seconds].
   At least [min_passes] run.  With [alternate], even passes are
   untraced and odd ones traced.  The first pass runs before the
   kernel ever has, so the heap's high-water mark after it is the
   workload's own. *)
let run_passes ~seconds ~min_passes ~alternate pass =
  let start = now () in
  let rec go i before acc =
    let traced = alternate && i mod 2 = 1 in
    let p = pass ~traced in
    let after = time_reference () in
    let before = Option.value before ~default:after in
    let host = (before +. after) /. 2. /. nominal_reference_s in
    let acc = { traced; host; pass = p } :: acc in
    let elapsed = now () -. start in
    let per = elapsed /. float_of_int (i + 1) in
    if i + 1 >= min_passes && elapsed +. per > seconds then List.rev acc
    else go (i + 1) (Some after) acc
  in
  go 0 None []

(* {1 Metrics} *)

(* Engine events and engine-run seconds from the [Tussle_obs.Metrics]
   snapshot (the counters only run while metrics are enabled). *)
let engine_totals () =
  let snap = Tussle_obs.Metrics.snapshot () in
  let events =
    match List.assoc_opt "engine.events_executed" snap with
    | Some (Tussle_obs.Metrics.Count n) -> float_of_int n
    | _ -> 0.
  in
  let run_wall =
    match List.assoc_opt "engine.run_wall_s" snap with
    | Some (Tussle_obs.Metrics.Dist d) -> d.sum
    | _ -> 0.
  in
  (events, run_wall)

type metric = { name : string; value : float; unit_ : string }

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let describe_spread label xs unit_ =
  Printf.printf "%s: median %.6g %s, quartiles [%.6g, %.6g], n=%d\n" label
    (median xs) unit_ (quantile xs 0.25) (quantile xs 0.75) (List.length xs)

(* The median over the passes of each position in [lists].  The passes
   of a run repeat the same work, so a position is the same block or op
   in every pass; a burst of host contention that slows one pass's op
   then moves that op's median only if it hits most passes there. *)
let per_position lists =
  let arrays = List.map Array.of_list lists in
  let n = Array.length (List.hd arrays) in
  if List.exists (fun a -> Array.length a <> n) arrays then
    invalid_arg "passes cut their work differently";
  List.init n (fun i -> median (List.map (fun a -> a.(i)) arrays))

(* wall_s sums the per-block medians; the op percentiles are taken over
   the per-op medians.  Every time is first divided by its pass's host
   factor. *)
let end_to_end ~peak_heap runs =
  let scaled f =
    List.map (fun r -> List.map (fun t -> t /. r.host) (f r.pass)) runs
  in
  let wall = sum (per_position (scaled (fun p -> p.blocks))) in
  let ops = per_position (scaled (fun p -> p.ops)) in
  let setup = List.concat (scaled (fun p -> p.setup)) in
  let passes = List.map (fun r -> r.pass) runs in
  describe_spread "host factor" (List.map (fun r -> r.host) runs) "x";
  describe_spread "raw pass wall" (List.map (fun p -> p.wall_s) passes) "s";
  describe_spread "setup_s" setup "s";
  describe_spread "op latency (per-op medians)"
    (List.map (fun s -> s *. 1e3) ops) "ms";
  [
    { name = "setup_s"; value = median setup; unit_ = "s" };
    { name = "wall_s"; value = wall; unit_ = "s" };
    { name = "op_p50_ms"; value = quantile ops 0.5 *. 1e3; unit_ = "ms" };
    { name = "op_p90_ms"; value = quantile ops 0.9 *. 1e3; unit_ = "ms" };
    {
      name = "alloc_mb";
      value = median (List.map (fun p -> p.alloc_bytes /. 1e6) passes);
      unit_ = "MB";
    };
    { name = "peak_heap_mb"; value = peak_heap; unit_ = "MB" };
  ]

(* The per-layer catalogue, in report order.  A workload fills the
   layers it calls into; a layer the workload never calls reads 0. *)
let per_layer_units =
  [
    ("exp.E1.wall_s", "s"); ("exp.E1.alloc_mb", "MB");
    ("exp.E3.wall_s", "s"); ("exp.E3.alloc_mb", "MB");
    ("exp.E17.wall_s", "s"); ("exp.E17.alloc_mb", "MB");
    ("exp.E27.wall_s", "s"); ("exp.E27.alloc_mb", "MB");
    ("exp.E27.events", "count"); ("exp.E27.ns_per_event", "ns");
    ("exp.E30.wall_s", "s");
    ("exp.rest.wall_s", "s"); ("exp.rest.alloc_mb", "MB");
    ("obs.report.build_ms", "ms"); ("obs.report.encode_ms", "ms");
    ("obs.report.decode_ms", "ms");
    ("chaos.line-transfer.op_ms", "ms"); ("chaos.ring-selfheal.op_ms", "ms");
    ("chaos.ring-verified.op_ms", "ms"); ("chaos.grid-static.op_ms", "ms");
    ("chaos.line-transfer.alloc_kb", "kB");
    ("chaos.ring-selfheal.alloc_kb", "kB");
    ("chaos.ring-verified.alloc_kb", "kB");
    ("chaos.grid-static.alloc_kb", "kB");
    ("chaos.scenario_run_us", "us"); ("chaos.invariant_check_us", "us");
    ("chaos.derive_us", "us");
    ("chaos.injected", "count"); ("chaos.delivered", "count");
    ("chaos.dropped", "count"); ("chaos.reconvergences", "count");
    ("chaos.engine_high_water_max", "count"); ("chaos.violations", "count");
    ("netsim.engine.events", "count"); ("netsim.engine.ns_per_event", "ns");
    ("routing.attach_ms", "ms");
    ("routing.reconverge.count", "count");
    ("routing.reconverge.ms_p50", "ms"); ("routing.reconverge.ms_p90", "ms");
    ("routing.reconverge.alloc_mb", "MB");
    ("netsim.forward.events", "count"); ("netsim.forward.ns_per_event", "ns");
    ("netsim.forward.alloc_words_per_event", "words");
    ("control.events", "count"); ("control.ns_per_event", "ns");
    ("netsim.engine.high_water", "count"); ("netsim.delivered", "count");
    ("netsim.lost", "count");
    ("trace.wall_s", "s"); ("trace.parts_s", "s"); ("trace.overhead_s", "s");
  ]

(* Per-layer values are medians over the traced passes; the trace.*
   entries compare traced passes with the untraced passes interleaved
   between them. *)
let per_layer ~untraced ~traced =
  let med f = median (List.map f traced) in
  let layer name =
    med (fun p -> Option.value ~default:0. (List.assoc_opt name p.layers))
  in
  let wall = med (fun p -> p.wall_s) in
  let parts = med (fun p -> p.parts_s) in
  (* the first pass runs cold; leave it out when there are others *)
  let warm = match untraced with _ :: (_ :: _ as rest) -> rest | l -> l in
  let overhead = wall -. median (List.map (fun p -> p.wall_s) warm) in
  Printf.printf "traced wall_s %.6g s, parts %.6g s (%.3f%% unattributed), \
                 overhead %.6g s over %d traced / %d untraced passes\n"
    wall parts
    (100. *. (wall -. parts) /. wall)
    overhead (List.length traced) (List.length untraced);
  List.map
    (fun (name, unit_) ->
      let value =
        match name with
        | "trace.wall_s" -> wall
        | "trace.parts_s" -> parts
        | "trace.overhead_s" -> overhead
        | _ -> layer name
      in
      { name; value; unit_ })
    per_layer_units

(* Share of the traced wall the per-layer parts leave unexplained. *)
let unattributed_share traced =
  let shares =
    List.map (fun p -> Float.abs (p.wall_s -. p.parts_s) /. p.wall_s) traced
  in
  List.fold_left Float.max 0. shares

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
          m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

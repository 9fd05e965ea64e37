(* Workload [battery]: all registry experiments in this domain, one
   after another, then the battery report built, encoded, parsed and
   validated.  One op is one experiment; the report round trip is one
   more checked op per pass.

   The experiments fix their own seeds; their only input seed is the
   fault seed ([Tussle_fault.Seed]) that E28, E29 and E30 read.  It
   stays at the repository's default, the battery a reader runs, and
   the workload seed does not reach it: E28's shape check fails at some
   other fault seeds (11, 38) and E30's at others (20, 34). *)

module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry
module Report = Tussle_obs.Report
module Json = Tussle_obs.Json
module Metrics = Tussle_obs.Metrics
open Harness

type fixture = Experiment.t list

let ids = List.map (fun (e : Experiment.t) -> e.id) Registry.all

let fixture _seed =
  Tussle_fault.Seed.set Tussle_fault.Seed.default;
  List.map
    (fun id ->
      match Registry.find id with
      | Some e -> e
      | None -> invalid_arg ("battery: unknown experiment " ^ id))
    ids

(* Experiments reported one by one; the others are summed as "rest". *)
let singled = [ "E1"; "E3"; "E17"; "E27"; "E30" ]

let layers outcomes ~build ~encode ~decode =
  let find id =
    List.find (fun (o : Experiment.outcome) -> o.exp_id = id) outcomes
  in
  let per_exp id =
    let o = find id in
    [
      (Printf.sprintf "exp.%s.wall_s" id, o.wall_s);
      (Printf.sprintf "exp.%s.alloc_mb" id, o.allocated_bytes /. 1e6);
    ]
  in
  let e27 = find "E27" in
  let rest =
    List.filter
      (fun (o : Experiment.outcome) -> not (List.mem o.exp_id singled))
      outcomes
  in
  let events, run_wall = engine_totals () in
  List.concat_map per_exp singled
  @ [
      ("exp.E27.events", float_of_int e27.events_executed);
      ( "exp.E27.ns_per_event",
        e27.wall_s *. 1e9 /. float_of_int (max 1 e27.events_executed) );
      ( "exp.rest.wall_s",
        sum (List.map (fun (o : Experiment.outcome) -> o.wall_s) rest) );
      ( "exp.rest.alloc_mb",
        sum
          (List.map
             (fun (o : Experiment.outcome) -> o.allocated_bytes /. 1e6)
             rest) );
      ("obs.report.build_ms", build *. 1e3);
      ("obs.report.encode_ms", encode *. 1e3);
      ("obs.report.decode_ms", decode *. 1e3);
      ("netsim.engine.events", events);
      ("netsim.engine.ns_per_event", run_wall *. 1e9 /. Float.max 1. events);
    ]

let pass exps ~traced =
  if traced then begin
    Metrics.reset ();
    Metrics.enable ()
  end;
  let pass_id = fresh_span () in
  let failed = ref 0 in
  let ops = ref [] in
  let a0 = allocated () in
  let t0 = now () in
  let outcomes =
    List.map
      (fun e ->
        let s = now () in
        let o = Experiment.run e in
        if plant_op () || not (Experiment.held o) then incr failed;
        let t = now () in
        ops := (t -. s) :: !ops;
        if traced then ignore (record ~parent:pass_id ("exp." ^ o.exp_id) s t);
        o)
      exps
  in
  let t_build = now () in
  let report = Registry.report ~domains:1 ~wall_s:(t_build -. t0) outcomes in
  let t_encode = now () in
  let text = Json.to_string (Report.to_json report) in
  let t_decode = now () in
  let valid =
    match Json.parse text with
    | Ok j -> Report.validate j = Ok ()
    | Error _ -> false
  in
  let t1 = now () in
  let a1 = allocated () in
  if not valid then incr failed;
  ops := (t1 -. t_build) :: !ops;
  let exp_s = sum (List.tl !ops) in
  let parts_s, layers =
    if traced then begin
      Metrics.disable ();
      ignore (record ~parent:pass_id "obs.report.build" t_build t_encode);
      ignore (record ~parent:pass_id "obs.report.encode" t_encode t_decode);
      ignore (record ~parent:pass_id "obs.report.decode" t_decode t1);
      ignore (record ~id:pass_id "battery.pass" t0 t1);
      ( exp_s +. (t1 -. t_build),
        layers outcomes ~build:(t_encode -. t_build)
          ~encode:(t_decode -. t_encode) ~decode:(t1 -. t_decode) )
    end
    else (0., [])
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map (fun (o : Experiment.outcome) -> o.output) outcomes)))
  in
  {
    wall_s = t1 -. t0;
    alloc_bytes = a1 -. a0;
    setup = [];
    blocks = !ops;
    ops = !ops;
    attempted = List.length exps + 1;
    failed = !failed;
    digest;
    parts_s;
    layers;
  }

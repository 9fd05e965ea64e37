(* Workload [chaos]: a fixed count of seeded chaos runs per pass,
   [Sweep.run_one ~master_seed i] for i = 0 .. ops_per_pass - 1, which
   goes round-robin over the four scenarios.  One op is one run; an op
   fails on a violated invariant or an exception.

   The workload seed is the master seed, the only input the program
   receives.  Every pass repeats the same runs, so its digest repeats. *)

module Sweep = Tussle_chaos.Sweep
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Plan = Tussle_fault.Plan
module Metrics = Tussle_obs.Metrics
open Harness

let ops_per_pass = 2000

type fixture = { master_seed : int; indices : int array }

let fixture seed =
  { master_seed = seed; indices = Array.init ops_per_pass Fun.id }

let digest_of results =
  let b = Buffer.create (ops_per_pass * 128) in
  Array.iter
    (function
      | Ok (r : Sweep.run) ->
        Printf.bprintf b "%d %s %d\n%s\n" r.index r.scenario r.seed
          (Plan.to_string r.plan);
        List.iter
          (fun v -> Printf.bprintf b "! %s\n" (Invariant.violation_string v))
          r.violations
      | Error msg -> Printf.bprintf b "exception %s\n" msg)
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_op fx i =
  match Sweep.run_one ~master_seed:fx.master_seed i with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let op_failed = function Ok (r : Sweep.run) -> r.violations <> [] | Error _ -> true

(* Per-scenario accumulators of the traced pass. *)
type acc = {
  mutable op_s : float list;
  mutable alloc_b : float list;
}

let scenario_names = List.map (fun (s : Scenario.t) -> s.name) Scenario.all

let untraced fx =
  let results = Array.make ops_per_pass (Error "not run") in
  let ops = ref [] in
  let failed = ref 0 in
  let a0 = allocated () in
  let t0 = now () in
  Array.iter
    (fun i ->
      let s = now () in
      let r = run_op fx i in
      if plant_op () || op_failed r then incr failed;
      ops := (now () -. s) :: !ops;
      results.(i) <- r)
    fx.indices;
  let t1 = now () in
  let a1 = allocated () in
  {
    wall_s = t1 -. t0;
    alloc_bytes = a1 -. a0;
    setup = [];
    blocks = !ops;
    ops = !ops;
    attempted = ops_per_pass;
    failed = !failed;
    digest = digest_of results;
    parts_s = 0.;
    layers = [];
  }

(* The traced pass times each op like the untraced one.  Then, outside
   the pass's wall, it splits the op: it runs [Sweep.run_one] again and
   the op's own scenario, seed and plan through [Scenario.run] and
   [Invariant.check], so both sides of the split run warm; derivation
   is the repeated op minus the other two.  The first two alternate
   order from op to op so that neither is always the warmer. *)
let traced fx =
  Metrics.reset ();
  let pass_id = fresh_span () in
  let results = Array.make ops_per_pass (Error "not run") in
  let accs = List.map (fun n -> (n, { op_s = []; alloc_b = [] })) scenario_names in
  let ops = ref [] in
  let failed = ref 0 in
  let split_s = ref 0. and again_s = ref 0. and run_s = ref 0. and check_s = ref 0. in
  let injected = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let reconv = ref 0 and high_water = ref 0 and violations = ref 0 in
  let a0 = allocated () in
  let t0 = now () in
  Array.iter
    (fun i ->
      Metrics.enable ();
      let oa = allocated () in
      let s = now () in
      let r = run_op fx i in
      if plant_op () || op_failed r then incr failed;
      let e = now () in
      let ea = allocated () in
      Metrics.disable ();
      ops := (e -. s) :: !ops;
      results.(i) <- r;
      let op_id = record ~parent:pass_id "chaos.op" s e in
      (match r with
      | Error _ -> ()
      | Ok run ->
        let acc = List.assoc run.scenario accs in
        acc.op_s <- (e -. s) :: acc.op_s;
        acc.alloc_b <- (ea -. oa) :: acc.alloc_b;
        let sc = Option.get (Scenario.find run.scenario) in
        let again () =
          let r0 = now () in
          ignore (run_op fx i);
          plant_cost ();
          let r1 = now () in
          again_s := !again_s +. (r1 -. r0)
        in
        if i mod 2 = 0 then again ();
        let r0 = now () in
        let obs = sc.run ~seed:run.seed ~plan:run.plan in
        let r1 = now () in
        let vs = Invariant.check obs in
        let r2 = now () in
        if i mod 2 = 1 then again ();
        ignore (record ~parent:op_id ("scenario." ^ run.scenario) r0 r1);
        ignore (record ~parent:op_id "invariant.check" r1 r2);
        run_s := !run_s +. (r1 -. r0);
        check_s := !check_s +. (r2 -. r1);
        injected := !injected + obs.injected;
        delivered := !delivered + obs.delivered;
        dropped := !dropped + obs.dropped;
        reconv := !reconv + obs.reconvergences;
        high_water := max !high_water obs.engine_high_water;
        violations := !violations + List.length vs);
      split_s := !split_s +. (now () -. e))
    fx.indices;
  let t1 = now () in
  let a1 = allocated () in
  ignore (record ~id:pass_id "chaos.pass" t0 t1);
  let n = float_of_int ops_per_pass in
  let op_total = sum !ops in
  let events, run_wall = engine_totals () in
  let per_scenario =
    List.concat_map
      (fun (name, acc) ->
        [
          (Printf.sprintf "chaos.%s.op_ms" name, median acc.op_s *. 1e3);
          (Printf.sprintf "chaos.%s.alloc_kb" name, median acc.alloc_b /. 1e3);
        ])
      accs
  in
  let count r = float_of_int !r in
  {
    wall_s = t1 -. t0 -. !split_s;
    alloc_bytes = a1 -. a0;
    setup = [];
    blocks = !ops;
    ops = !ops;
    attempted = ops_per_pass;
    failed = !failed;
    digest = digest_of results;
    parts_s = op_total;
    layers =
      per_scenario
      @ [
          ("chaos.scenario_run_us", !run_s /. n *. 1e6);
          ("chaos.invariant_check_us", !check_s /. n *. 1e6);
          ("chaos.derive_us", (!again_s -. !run_s -. !check_s) /. n *. 1e6);
          ("chaos.injected", count injected);
          ("chaos.delivered", count delivered);
          ("chaos.dropped", count dropped);
          ("chaos.reconvergences", count reconv);
          ("chaos.engine_high_water_max", count high_water);
          ("chaos.violations", count violations);
          ("netsim.engine.events", events);
          ("netsim.engine.ns_per_event", run_wall *. 1e9 /. Float.max 1. events);
        ];
  }

let pass fx ~traced:t = if t then traced fx else untraced fx

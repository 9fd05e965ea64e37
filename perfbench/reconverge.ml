(* Workload [reconverge]: one long hello-only self-healing simulation
   on a Barabási–Albert graph, generated from the workload seed by the
   benchmark: the topology, a schedule of link-down, link-flap and
   node-crash episodes, and constant-rate flows between random pairs.
   The engine runs until it drains; then [Invariant.observe] and
   [Invariant.check].

   Set-up is everything before the first event: inputs, [Net.create],
   [Selfheal.attach] (the initial all-pairs SPF), [Inject.install] and
   traffic scheduling.  One op is one [Engine.step] after which
   [Selfheal.reconvergences] rose: the recompute and table install. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Invariant = Tussle_chaos.Invariant
open Harness

let nodes = 256
let links_per_node = 2
let flows = 16
let send_interval = 0.05

(* Episodes run one at a time, each in its own slot, so every fault is
   detected and repaired before the next opens: a link down or a node
   crash for 0.4 s, or a link flapping for two 0.8 s periods.  Slots
   start off the 50 ms hello grid. *)
let rounds = 12
let first_slot = 0.513
let drain_margin = 1.0

type inputs = {
  graph : Topology.edge Graph.t;
  plan : Plan.t;
  pairs : (int * int) list;
  until : float;
}

let generate seed =
  let rng = Rng.create seed in
  let graph = Topology.barabasi_albert rng nodes links_per_node in
  let edges =
    Array.of_list
      (Graph.fold_edges graph ~init:[] ~f:(fun acc u v _ ->
           if u < v then (u, v) :: acc else acc))
  in
  let at = ref first_slot in
  let episode k =
    let u, v = Rng.choice rng edges in
    let s = !at in
    match k mod 3 with
    | 0 ->
      at := s +. 1.0;
      Plan.Link_down { u; v; w = Plan.window s (s +. 0.4) }
    | 1 ->
      at := s +. 1.0;
      Plan.Node_crash { node = Rng.int rng nodes; w = Plan.window s (s +. 0.4) }
    | _ ->
      at := s +. 2.0;
      Plan.Link_flap
        { u; v; w = Plan.window s (s +. 1.6); period_s = 0.8; duty = 0.5 }
  in
  let plan = List.init (3 * rounds) episode in
  let pair _ =
    let src = Rng.int rng nodes in
    let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
    (src, dst)
  in
  { graph; plan; pairs = List.init flows pair; until = !at +. drain_margin }

type sim = {
  inputs : inputs;
  engine : Engine.t;
  net : Net.t;
  heal : Selfheal.t;
}

(* Build one pass's simulation; returns it with the set-up phases'
   boundaries, for the set-up metric and the spans. *)
let build seed =
  let t0 = now () in
  let inputs = generate seed in
  let t_net = now () in
  let net =
    Net.create (Topology.to_links inputs.graph) (fun ~node:_ ~target:_ _ ->
        None)
  in
  let engine = Engine.create () in
  let t_attach = now () in
  let heal = Selfheal.attach ~until:inputs.until engine net in
  let t_install = now () in
  Inject.install ~seed ~plan:inputs.plan engine net;
  let t_traffic = now () in
  let gen = Traffic.create (Rng.create (seed + 1)) in
  let count = int_of_float (inputs.until /. send_interval) in
  List.iter
    (fun (src, dst) ->
      Traffic.constant_flow gen engine net ~interval:send_interval ~count
        ~make:(fun g ~created -> Traffic.next_packet g ~src ~dst ~created ()))
    inputs.pairs;
  let t1 = now () in
  ( { inputs; engine; net; heal },
    [
      ("setup.inputs", t0, t_net);
      ("setup.net", t_net, t_attach);
      ("selfheal.attach", t_attach, t_install);
      ("inject.install", t_install, t_traffic);
      ("setup.traffic", t_traffic, t1);
    ] )

let check sim =
  let obs =
    Invariant.observe
      ~reconvergences:(Selfheal.reconvergences sim.heal)
      ~fault_transitions:(Plan.transitions sim.inputs.plan)
      ~clock_start:0. sim.engine sim.net
  in
  (obs, Invariant.check obs)

let digest_of sim (obs : Invariant.obs) violations =
  let b = Buffer.create 4096 in
  Printf.bprintf b "delivered %d lost %d\n" obs.delivered obs.dropped;
  List.iter
    (fun (reason, n) -> Printf.bprintf b "%s %d\n" reason n)
    obs.drops_by_reason;
  List.iter (Printf.bprintf b "%h\n") (Selfheal.reconvergence_times sim.heal);
  List.iter
    (fun v -> Printf.bprintf b "! %s\n" (Invariant.violation_string v))
    violations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let setup_s phases =
  let _, t0, _ = List.hd phases in
  let _, _, t1 = List.hd (List.rev phases) in
  t1 -. t0

(* Time every step; an op is a step that installed new tables.  The
   reconvergences also cut the pass into blocks: each block runs from
   the end of one reconvergence to the end of the next, and the last
   one to the end of the check. *)
let untraced seed =
  let sim, phases = build seed in
  let ops = ref [] and blocks = ref [] in
  let failed = ref 0 in
  let rc = ref 0 in
  let a0 = allocated () in
  let t0 = now () in
  let prev = ref t0 and block = ref t0 in
  while Engine.step sim.engine do
    let r = Selfheal.reconvergences sim.heal in
    if r <> !rc then begin
      rc := r;
      if plant_op () then incr failed;
      let t = now () in
      ops := (t -. !prev) :: !ops;
      blocks := (t -. !block) :: !blocks;
      prev := t;
      block := t
    end
    else prev := now ()
  done;
  let obs, violations = check sim in
  let t1 = now () in
  let a1 = allocated () in
  if violations <> [] then incr failed;
  {
    wall_s = t1 -. t0;
    alloc_bytes = a1 -. a0;
    setup = [ setup_s phases ];
    blocks = (t1 -. !block) :: !blocks;
    ops = !ops;
    attempted = List.length !ops + 1;
    failed = !failed;
    digest = digest_of sim obs violations;
    parts_s = 0.;
    layers = [];
  }

type cls = { mutable events : int; mutable secs : float; mutable bytes : float }

let cls () = { events = 0; secs = 0.; bytes = 0. }

let account c dt da =
  c.events <- c.events + 1;
  c.secs <- c.secs +. dt;
  c.bytes <- c.bytes +. da

(* The traced pass classifies every step by what it moved, seen from
   outside: a reconvergence (the count rose), forwarding (the forwarding
   function was consulted, or a packet was injected or completed), or
   control (hello ticks and fault toggles).  To see forwarding calls it
   wraps the installed table's own [Linkstate.forwarding] after attach
   and after every reconvergence — the same function Selfheal installs,
   so the simulation is unchanged (the digest checks it). *)
let traced seed =
  let pass_id = fresh_span () in
  let sim, phases = build seed in
  let setup_id = fresh_span () in
  List.iter (fun (n, t0, t1) -> ignore (record ~parent:setup_id n t0 t1)) phases;
  let attach_s =
    List.find_map
      (fun (n, t0, t1) -> if n = "selfheal.attach" then Some (t1 -. t0) else None)
      phases
    |> Option.get
  in
  let fwd_calls = ref 0 and completions = ref 0 in
  let wrap () =
    let f = Linkstate.forwarding (Selfheal.table sim.heal) in
    Net.set_forwarding sim.net (fun ~node ~target p ->
        incr fwd_calls;
        f ~node ~target p)
  in
  wrap ();
  Net.on_complete sim.net (fun _ _ -> incr completions);
  let reconv = cls () and forward = cls () and control = cls () in
  let reconv_ms = ref [] in
  let failed = ref 0 in
  let rc = ref 0 in
  (* what reading the clock and the allocation counter allocate *)
  let overhead_b =
    let a = allocated () in
    ignore (Sys.opaque_identity (now ()));
    allocated () -. a
  in
  let a0 = allocated () in
  let t0 = now () in
  let prev_t = ref t0 and prev_a = ref a0 in
  let prev_injected = ref (Net.injected_count sim.net) in
  while Engine.step sim.engine do
    let r = Selfheal.reconvergences sim.heal in
    let injected = Net.injected_count sim.net in
    let moved =
      !fwd_calls > 0 || !completions > 0 || injected <> !prev_injected
    in
    let reconverged = r <> !rc in
    if reconverged && plant_op () then incr failed;
    let t = now () in
    let a = allocated () in
    let dt = t -. !prev_t and da = a -. !prev_a -. overhead_b in
    if reconverged then begin
      rc := r;
      account reconv dt da;
      reconv_ms := (dt *. 1e3) :: !reconv_ms;
      ignore (record ~parent:pass_id "routing.reconverge" !prev_t t);
      wrap ()
    end
    else if moved then account forward dt da
    else account control dt da;
    fwd_calls := 0;
    completions := 0;
    prev_injected := injected;
    (* chain the clock so every instant of the loop is attributed, but
       re-read the allocation counter so the bookkeeping above is not *)
    prev_t := t;
    prev_a := allocated ()
  done;
  let tc = now () in
  let obs, violations = check sim in
  let t1 = now () in
  let a1 = allocated () in
  ignore (record ~parent:pass_id "invariant.check" tc t1);
  let _, s0, _ = List.hd phases in
  ignore (record ~parent:pass_id ~id:setup_id "setup" s0 t0);
  ignore (record ~id:pass_id "reconverge.pass" t0 t1);
  if violations <> [] then incr failed;
  let events = Engine.events_executed sim.engine in
  let ns c = c.secs *. 1e9 /. float_of_int (max 1 c.events) in
  let loop_s = reconv.secs +. forward.secs +. control.secs in
  {
    wall_s = t1 -. t0;
    alloc_bytes = a1 -. a0;
    setup = [ setup_s phases ];
    blocks = [];
    ops = List.map (fun ms -> ms /. 1e3) !reconv_ms;
    attempted = reconv.events + 1;
    failed = !failed;
    digest = digest_of sim obs violations;
    parts_s = loop_s +. (t1 -. tc);
    layers =
      [
        ("routing.attach_ms", attach_s *. 1e3);
        ("routing.reconverge.count", float_of_int reconv.events);
        ("routing.reconverge.ms_p50", quantile !reconv_ms 0.5);
        ("routing.reconverge.ms_p90", quantile !reconv_ms 0.9);
        ("routing.reconverge.alloc_mb", reconv.bytes /. 1e6);
        ("netsim.forward.events", float_of_int forward.events);
        ("netsim.forward.ns_per_event", ns forward);
        ( "netsim.forward.alloc_words_per_event",
          forward.bytes
          /. float_of_int (Sys.word_size / 8)
          /. float_of_int (max 1 forward.events) );
        ("control.events", float_of_int control.events);
        ("control.ns_per_event", ns control);
        ("netsim.engine.events", float_of_int events);
        ("netsim.engine.ns_per_event", loop_s *. 1e9 /. float_of_int (max 1 events));
        ("netsim.engine.high_water", float_of_int obs.engine_high_water);
        ("netsim.delivered", float_of_int obs.delivered);
        ("netsim.lost", float_of_int obs.dropped);
      ];
  }

type fixture = int

let fixture seed = seed

let pass seed ~traced:t = if t then traced seed else untraced seed

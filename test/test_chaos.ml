(* Tests for tussle.chaos: the invariant registry, the seeded sweep
   (clean, domain-invariant, seed-sensitive), the delta-debugging
   shrinker on a deliberately planted violation, the replayable corpus,
   and the guard that no enumeration path ever picks up the watchdog
   hang probe. *)

module Rng = Tussle_prelude.Rng
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Invariant = Tussle_chaos.Invariant
module Scenario = Tussle_chaos.Scenario
module Sweep = Tussle_chaos.Sweep
module Shrink = Tussle_chaos.Shrink
module Corpus = Tussle_chaos.Corpus
module Explain = Tussle_chaos.Explain
module Flight = Tussle_obs.Flight
module Obs_json = Tussle_obs.Json
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry

(* ---------- the invariant registry on hand-built ledgers ---------- *)

let clean_obs =
  {
    Invariant.injected = 10;
    delivered = 7;
    dropped = 3;
    in_flight = 0;
    engine_pending = 0;
    clock_start = 0.0;
    clock_end = 5.0;
    drops_by_reason = [ ("link-down", 2); ("no-route", 1) ];
    link_fault_drops = 2;
    link_corrupted = 0;
    transfers = [ Invariant.Completed; Invariant.Abandoned ];
    link_gray_drops = 0;
    engine_high_water = 4;
    reconvergences = 1;
    covert_budget = None;
    fault_transitions = None;
  }

let violated_names obs =
  List.map (fun v -> v.Invariant.invariant) (Invariant.check obs)

let test_invariants_on_ledgers () =
  Alcotest.(check (list string)) "clean ledger passes" [] (violated_names clean_obs);
  Alcotest.(check (list string)) "lost packet" [ "packet-conservation" ]
    (violated_names { clean_obs with Invariant.delivered = 6 });
  Alcotest.(check (list string)) "wedged engine" [ "engine-drained" ]
    (violated_names { clean_obs with Invariant.engine_pending = 3 });
  Alcotest.(check (list string)) "clock ran backwards" [ "monotone-clock" ]
    (violated_names { clean_obs with Invariant.clock_end = -1.0 });
  Alcotest.(check (list string)) "unattributed drop" [ "drop-accounting" ]
    (violated_names { clean_obs with Invariant.link_fault_drops = 5 });
  Alcotest.(check (list string)) "hung transfer" [ "no-hung-transfer" ]
    (violated_names
       { clean_obs with Invariant.transfers = [ Invariant.Active ] });
  (* the covert-drop ledger: link-counted gray drops must surface as
     attributed gray-loss outcomes ... *)
  Alcotest.(check (list string)) "unattributed gray drop"
    [ "no-silent-blackhole" ]
    (violated_names { clean_obs with Invariant.link_gray_drops = 2 });
  (* ... and a declared covert budget caps gray + blackholed damage *)
  let covert_obs =
    { clean_obs with
      Invariant.drops_by_reason = [ ("gray-loss", 2); ("blackholed", 1) ];
      link_gray_drops = 2;
      link_fault_drops = 0;
      covert_budget = Some 2 }
  in
  Alcotest.(check (list string)) "covert budget busted"
    [ "no-silent-blackhole" ]
    (violated_names covert_obs);
  Alcotest.(check (list string)) "covert budget honored" []
    (violated_names { covert_obs with Invariant.covert_budget = Some 3 });
  Alcotest.(check (list string)) "no claim, no check" []
    (violated_names { covert_obs with Invariant.covert_budget = None });
  (* a ttl death without any reconvergence means static tables looped *)
  let loop_obs =
    { clean_obs with
      Invariant.drops_by_reason = [ ("ttl-exceeded", 3) ];
      link_fault_drops = 0;
      reconvergences = 0 }
  in
  Alcotest.(check (list string)) "static forwarding loop"
    [ "no-forwarding-loop" ]
    (violated_names loop_obs);
  Alcotest.(check (list string)) "transient loop during healing is fine" []
    (violated_names { loop_obs with Invariant.reconvergences = 1 });
  (* reconvergence churn is bounded by the plan's transition count *)
  Alcotest.(check (list string)) "reconvergence churn"
    [ "damping-bounds-reconvergence" ]
    (violated_names
       { clean_obs with
         Invariant.reconvergences = 9;
         fault_transitions = Some 1 });
  Alcotest.(check (list string)) "churn within bound" []
    (violated_names
       { clean_obs with
         Invariant.reconvergences = 8;
         fault_transitions = Some 1 });
  Alcotest.(check int) "registry has eight invariants" 8
    (List.length Invariant.names)

let test_invariants_on_real_run () =
  (* a real scenario under a nasty plan: every invariant holds *)
  let s = Scenario.line_transfer in
  let plan =
    [
      Plan.Link_down { u = 1; v = 2; w = Plan.window 0.1 2.0 };
      Plan.Link_loss { u = 0; v = 1; w = Plan.window 0.5 4.0; prob = 0.3 };
      Plan.Link_corrupt { u = 2; v = 3; w = Plan.window 1.0 6.0; prob = 0.2 };
    ]
  in
  let obs = s.Scenario.run ~seed:11 ~plan in
  Alcotest.(check (list string)) "no violations" [] (violated_names obs);
  Alcotest.(check bool) "faults actually bit" true
    (obs.Invariant.dropped > 0)

(* ---------- the sweep: clean, domain-invariant, seed-sensitive ---------- *)

let render_runs runs =
  String.concat "\n"
    (List.map
       (fun (r : Sweep.run) ->
         Printf.sprintf "%d|%s|%d|%d|%s|%s" r.Sweep.index r.Sweep.scenario
           r.Sweep.seed r.Sweep.episodes
           (Plan.to_string r.Sweep.plan)
           (String.concat ";"
              (List.map Invariant.violation_string r.Sweep.violations)))
       runs)

let test_sweep_clean_and_deterministic () =
  let a = Sweep.run_sweep ~domains:1 ~seed:42 ~runs:60 () in
  Alcotest.(check int) "60 runs" 60 (List.length a);
  Alcotest.(check int) "zero violations" 0 (List.length (Sweep.failures a));
  Alcotest.(check bool) "every scenario exercised" true
    (List.for_all
       (fun (s : Scenario.t) ->
         List.exists (fun r -> r.Sweep.scenario = s.Scenario.name) a)
       Scenario.all);
  let b = Sweep.run_sweep ~domains:2 ~seed:42 ~runs:60 () in
  Alcotest.(check string) "identical across domain counts" (render_runs a)
    (render_runs b);
  let c = Sweep.run_sweep ~domains:1 ~seed:43 ~runs:60 () in
  Alcotest.(check bool) "different seed, different sweep" true
    (render_runs a <> render_runs c)

(* ---------- the observations, pinned ---------- *)

(* [ring-verified] as the scenario builds it, returning the control
   plane as well as the ledger so its detections and reconvergence
   times can be pinned too.  Checked against the scenario's own run
   below, so it cannot drift from it unnoticed. *)
let ring_verified_with_heal ~seed ~plan =
  let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 } in
  let net =
    Net.create
      (Topology.to_links (Topology.ring ~edge 6))
      (fun ~node:_ ~target:_ _ -> None)
  in
  let engine = Engine.create () in
  let clock_start = Engine.now engine in
  let heal =
    Selfheal.attach ~config:Selfheal.verified_config ~until:12.0 engine net
  in
  Inject.install ~seed ~plan engine net;
  let gen = Traffic.create (Rng.create (seed + 1)) in
  for k = 0 to 79 do
    let at = 0.2 +. (0.1 *. float_of_int k) in
    ignore
      (Engine.schedule engine at (fun engine ->
           Net.inject net engine
             (Traffic.next_packet gen ~src:0 ~dst:3
                ~created:(Engine.now engine) ())))
  done;
  Engine.run ~until:600.0 engine;
  ( Invariant.observe ~reconvergences:(Selfheal.reconvergences heal)
      ~fault_transitions:(Plan.transitions plan) ~clock_start engine net,
    heal )

let render_obs b (o : Invariant.obs) =
  let opt = function None -> "-" | Some n -> string_of_int n in
  Printf.bprintf b "%d %d %d %d %d %h %h |" o.injected o.delivered o.dropped
    o.in_flight o.engine_pending o.clock_start o.clock_end;
  List.iter (fun (r, n) -> Printf.bprintf b " %s=%d" r n) o.drops_by_reason;
  Printf.bprintf b " | %d %d %d |" o.link_fault_drops o.link_corrupted
    o.link_gray_drops;
  List.iter
    (fun s ->
      Buffer.add_string b
        (match s with
        | Invariant.Completed -> " C"
        | Invariant.Abandoned -> " A"
        | Invariant.Active -> " X"))
    o.transfers;
  Printf.bprintf b " | %d %d %s %s\n" o.engine_high_water o.reconvergences
    (opt o.covert_budget) (opt o.fault_transitions)

let render_heal b heal =
  List.iter
    (fun ((u, v), verdict, at) ->
      Printf.bprintf b " %d-%d:%s@%h" u v
        (match verdict with `Down -> "down" | `Up -> "up")
        at)
    (Selfheal.detections heal);
  Buffer.add_string b " |";
  List.iter (Printf.bprintf b " %h") (Selfheal.reconvergence_times heal);
  Buffer.add_char b '\n'

(* The behaviour-lock digests hash plans and violations only, so a
   changed delivered count, drop reason or reconvergence count would
   pass them.  This pins every field of every run's ledger, plus each
   ring-verified run's detections and table-install times. *)
let observation_digest = "47a2b7385bce7015ce6ef2ccdcadeb78"

let test_observation_digest () =
  let b = Buffer.create (1 lsl 16) in
  for i = 0 to 399 do
    let r = Sweep.run_one ~master_seed:1031 i in
    let sc =
      match Scenario.find r.Sweep.scenario with
      | Some s -> s
      | None -> Alcotest.fail ("unknown scenario " ^ r.Sweep.scenario)
    in
    let obs = sc.Scenario.run ~seed:r.Sweep.seed ~plan:r.Sweep.plan in
    Printf.bprintf b "%d %s " i r.Sweep.scenario;
    render_obs b obs;
    if r.Sweep.scenario = "ring-verified" then begin
      let obs', heal =
        ring_verified_with_heal ~seed:r.Sweep.seed ~plan:r.Sweep.plan
      in
      if obs' <> obs then
        Alcotest.failf "run %d: the test's ring-verified copy diverged" i;
      render_heal b heal
    end
  done;
  Alcotest.(check string) "observation digest" observation_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- planted violation -> shrink -> corpus -> replay ---------- *)

(* A deliberately broken scenario: it stops its engine at t = 1.0, so
   any episode whose window reaches past that leaves its restore event
   queued — a genuine engine-drained violation, planted on purpose.
   The real scenarios run to a far guard horizon precisely so this
   cannot happen to them. *)
let planted : Scenario.t =
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.line 2))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    Inject.install ~seed ~plan engine net;
    Engine.run ~until:1.0 engine;
    Invariant.observe ~clock_start engine net
  in
  { Scenario.name = "planted-truncated-run"; links = [ (0, 1) ];
    horizon = 4.0; run }

let culprit = Plan.Link_down { u = 0; v = 1; w = Plan.window 0.2 2.5 }

let planted_plan =
  [
    Plan.Link_loss { u = 0; v = 1; w = Plan.window 0.1 0.5; prob = 0.2 };
    culprit;
    Plan.Latency_spike { u = 0; v = 1; w = Plan.window 0.3 0.8; extra_s = 0.01 };
    Plan.Link_down { u = 0; v = 1; w = Plan.window 0.05 0.9 };
  ]

let test_shrink_planted_violation () =
  let fails = Sweep.still_fails planted ~seed:7 in
  Alcotest.(check bool) "planted plan fails" true (fails planted_plan);
  Alcotest.(check bool) "empty plan passes" false (fails []);
  let minimal = Shrink.shrink ~still_fails:fails planted_plan in
  Alcotest.(check bool) "strictly fewer episodes" true
    (List.length minimal < List.length planted_plan);
  Alcotest.(check int) "in fact 1-minimal" 1 (List.length minimal);
  Alcotest.(check bool) "kept exactly the culprit" true (minimal = [ culprit ]);
  Alcotest.(check bool) "minimal plan still fails" true (fails minimal)

let fresh_corpus_dir () =
  let stamp = Filename.temp_file "tussle-chaos" "" in
  Sys.remove stamp;
  stamp ^ ".corpus"

let test_corpus_roundtrip_and_replay () =
  let dir = fresh_corpus_dir () in
  let fails = Sweep.still_fails planted ~seed:7 in
  let minimal = Shrink.shrink ~still_fails:fails planted_plan in
  let entry =
    { Corpus.scenario = planted.Scenario.name; seed = 7; plan = minimal }
  in
  let path = Corpus.save ~dir entry in
  (match Corpus.load path with
  | Error e -> Alcotest.fail e
  | Ok e ->
    Alcotest.(check string) "scenario round-trips" entry.Corpus.scenario
      e.Corpus.scenario;
    Alcotest.(check int) "seed round-trips" entry.Corpus.seed e.Corpus.seed;
    Alcotest.(check bool) "plan round-trips" true (e.Corpus.plan = minimal);
    (* the persisted reproducer, replayed from disk, still fails *)
    Alcotest.(check bool) "replayed reproducer still fails" true
      (Invariant.check
         (planted.Scenario.run ~seed:e.Corpus.seed ~plan:e.Corpus.plan)
      <> []));
  (match Corpus.load_dir dir with
  | [ (p, Ok _) ] -> Alcotest.(check string) "listed" path p
  | other -> Alcotest.failf "expected 1 loadable entry, got %d" (List.length other));
  (* saving the same reproducer again is idempotent (same filename) *)
  let path2 = Corpus.save ~dir entry in
  Alcotest.(check string) "idempotent save" path path2;
  Alcotest.(check int) "still one file" 1 (List.length (Corpus.load_dir dir));
  (* a registered-scenario entry replays through Sweep.replay *)
  let real =
    {
      Corpus.scenario = "line-transfer";
      seed = 5;
      plan = [ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } ];
    }
  in
  (match Sweep.replay real with
  | Ok [] -> ()
  | Ok vs ->
    Alcotest.failf "unexpected violations: %s"
      (String.concat "; " (List.map Invariant.violation_string vs))
  | Error e -> Alcotest.fail e);
  match Sweep.replay { real with Corpus.scenario = "no-such-scenario" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario must be an error"

let test_corpus_load_errors () =
  let dir = fresh_corpus_dir () in
  let write name contents =
    (match Sys.is_directory dir with
    | (exception Sys_error _) | false -> Sys.mkdir dir 0o755
    | true -> ());
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "no-header.plan" "link 0-1 down [0, 1)\n";
  write "bad-plan.plan" "scenario: line-transfer\nseed: 3\nwibble\n";
  write "invalid-plan.plan" "scenario: line-transfer\nseed: 3\nlink 2-2 down [0, 1)\n";
  let results = Corpus.load_dir dir in
  Alcotest.(check int) "three entries" 3 (List.length results);
  List.iter
    (fun (path, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s should not load" path
      | Error _ -> ())
    results

(* ---------- planted gray failure: legacy grammar is blind ---------- *)

(* A ring healed by hello-only detection, with a covert-drop budget
   declared.  Every legacy-grammar fault is overt — down / loss /
   corrupt / latency all announce themselves to the control plane or
   the ledgers — so 200 random legacy plans sail through.  One
   Gray_loss episode on the primary path violates the budget: hellos
   keep passing, the route never moves, and the link silently eats the
   flow.  The data-plane-verified config on the identical run reroutes
   within the budget.  This is the registry catching a failure class
   the old grammar could not even express. *)
let gray_blind config : Scenario.t =
  let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 } in
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.ring ~edge 6))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    let heal = Selfheal.attach ~config ~until:12.0 engine net in
    Inject.install ~seed ~plan engine net;
    let gen = Traffic.create (Rng.create (seed + 1)) in
    for k = 0 to 79 do
      let at = 0.2 +. (0.1 *. float_of_int k) in
      ignore
        (Engine.schedule engine at (fun engine ->
             Net.inject net engine
               (Traffic.next_packet gen ~src:0 ~dst:2
                  ~created:(Engine.now engine) ())))
    done;
    Engine.run ~until:600.0 engine;
    Invariant.observe ~reconvergences:(Selfheal.reconvergences heal)
      ~covert_budget:16
      ~fault_transitions:(Plan.transitions plan) ~clock_start engine net
  in
  { Scenario.name = "gray-blind";
    links = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
    horizon = 10.0; run }

let gray_culprit_plan =
  [ Plan.Gray_loss { u = 1; v = 2; w = Plan.window 0.5 9.5; prob = 0.95 } ]

let test_planted_gray_failure () =
  let hello_only = gray_blind Selfheal.default_config in
  (* the pre-gray grammar cannot trip the covert budget: 200 random
     legacy plans, all clean *)
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let plan =
      Plan.random ~extended:false rng ~links:hello_only.Scenario.links
        ~horizon:hello_only.Scenario.horizon ~episodes:3
    in
    let vs = Invariant.check (hello_only.Scenario.run ~seed ~plan) in
    if vs <> [] then
      Alcotest.failf "legacy plan (seed %d) violated: %s" seed
        (String.concat "; " (List.map Invariant.violation_string vs))
  done;
  (* one gray episode on the primary path busts it under hello-only
     healing... *)
  let vs =
    Invariant.check (hello_only.Scenario.run ~seed:3 ~plan:gray_culprit_plan)
  in
  Alcotest.(check (list string)) "gray plan busts hello-only healing"
    [ "no-silent-blackhole" ]
    (List.map (fun v -> v.Invariant.invariant) vs);
  (* ... and the data-plane-verified control plane heals the same run
     back inside the budget *)
  let verified = gray_blind Selfheal.verified_config in
  let obs = verified.Scenario.run ~seed:3 ~plan:gray_culprit_plan in
  Alcotest.(check (list string)) "verified healing stays in budget" []
    (List.map (fun v -> v.Invariant.invariant) (Invariant.check obs));
  Alcotest.(check bool) "the detector actually rerouted" true
    (obs.Invariant.reconvergences > 0)

(* ---------- no enumeration path reaches the hang probe ---------- *)

let test_hang_probe_not_swept () =
  let ids = List.map (fun e -> e.Experiment.id) Registry.all in
  Alcotest.(check bool) "E99 not in Registry.all" false (List.mem "E99" ids);
  Alcotest.(check bool) "chaos scenarios don't know it" true
    (Scenario.find "E99" = None);
  Alcotest.(check bool) "no scenario is the probe" true
    (List.for_all
       (fun (s : Scenario.t) ->
         s.Scenario.name <> "E99"
         && not (List.mem s.Scenario.name ids))
       Scenario.all);
  (* a whole sweep never touches an experiment id at all *)
  let runs = Sweep.run_sweep ~domains:1 ~seed:1 ~runs:9 () in
  Alcotest.(check bool) "sweep targets are scenarios only" true
    (List.for_all
       (fun r -> Scenario.find r.Sweep.scenario <> None)
       runs);
  (* the probe stays findable for the watchdog tests — just never enumerated *)
  match Registry.find "E99" with
  | Some e -> Alcotest.(check string) "still findable" "E99" e.Experiment.id
  | None -> Alcotest.fail "hang probe must stay findable by id"

(* ---------- explain ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let line_entry =
  {
    Corpus.scenario = "line-transfer";
    seed = 5;
    plan = [ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } ];
  }

let test_explain_deterministic_and_causal () =
  match (Explain.run line_entry, Explain.run line_entry) with
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok a, Ok b ->
    Alcotest.(check string) "byte-identical narrative" a.Explain.narrative
      b.Explain.narrative;
    Alcotest.(check bool) "recorder left disabled" false (Flight.enabled ());
    Alcotest.(check bool) "names the faulted link" true
      (contains a.Explain.narrative "link 1-2");
    Alcotest.(check bool) "names the drop reason" true
      (contains a.Explain.narrative "link-down");
    Alcotest.(check bool) "attributes drops to the episode" true
      (contains a.Explain.narrative "during episode [0]");
    Alcotest.(check bool) "clean verdict on a fixed regression" true
      (a.Explain.violations = []);
    (* the flow-trace artifact validates, and survives a serializer
       round-trip *)
    let artifact = Explain.to_json a in
    (match Explain.validate_json artifact with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match Obs_json.parse (Obs_json.to_string artifact) with
    | Error e -> Alcotest.fail e
    | Ok j -> (
      match Explain.validate_json j with
      | Ok () -> ()
      | Error e -> Alcotest.fail e));
    (match
       Explain.validate_json (Obs_json.Obj [ ("schema", Obs_json.Str "nope") ])
     with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "bad schema tag accepted")

let test_violation_narrative () =
  (* the attachment the sweep prints for each violation: pure, so it
     can be pinned against a hand-built causal stream *)
  let ev ~seq ~sim_t ~flow ~kind ~node ~peer ~detail ~value =
    { Flight.seq; sim_t; flow; kind; node; peer; detail; value }
  in
  let events =
    [
      ev ~seq:0 ~sim_t:0.19 ~flow:3 ~kind:"inject" ~node:0 ~peer:3
        ~detail:"web" ~value:1500.0;
      ev ~seq:1 ~sim_t:0.25 ~flow:3 ~kind:"drop" ~node:1 ~peer:2
        ~detail:"link-down" ~value:0.0;
    ]
  in
  let v =
    { Invariant.invariant = "packet-conservation"; detail = "one lost" }
  in
  let s = Explain.narrative_of_violation ~entry:line_entry ~events v in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "attachment mentions %S" needle)
        true (contains s needle))
    [ "violation: packet-conservation"; "packet 3"; "DROPPED at link 1-2";
      "during episode [0]" ]

let test_explain_unknown_scenario () =
  match Explain.run { Corpus.scenario = "no-such"; seed = 1; plan = [] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario accepted"

let test_recorder_zero_perturbation () =
  (* the flight recorder observes the simulation; it must not change
     what the simulation does *)
  let sc =
    match Scenario.find "line-transfer" with
    | Some s -> s
    | None -> Alcotest.fail "line-transfer scenario missing"
  in
  let plan = line_entry.Corpus.plan in
  Flight.disable ();
  Flight.reset ();
  let off = sc.Scenario.run ~seed:5 ~plan in
  Flight.enable ();
  Flight.reset ();
  let on_ = sc.Scenario.run ~seed:5 ~plan in
  Flight.disable ();
  Flight.reset ();
  Alcotest.(check bool) "identical observation on vs off" true (off = on_)

let () =
  Alcotest.run "chaos"
    [
      ( "invariants",
        [
          Alcotest.test_case "hand-built ledgers" `Quick
            test_invariants_on_ledgers;
          Alcotest.test_case "real faulted run" `Quick
            test_invariants_on_real_run;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean + deterministic" `Slow
            test_sweep_clean_and_deterministic;
          Alcotest.test_case "observation digest" `Slow
            test_observation_digest;
        ] );
      ( "shrink-and-corpus",
        [
          Alcotest.test_case "planted violation shrinks" `Quick
            test_shrink_planted_violation;
          Alcotest.test_case "corpus round-trip + replay" `Quick
            test_corpus_roundtrip_and_replay;
          Alcotest.test_case "planted gray failure" `Slow
            test_planted_gray_failure;
          Alcotest.test_case "corpus load errors" `Quick
            test_corpus_load_errors;
        ] );
      ( "explain",
        [
          Alcotest.test_case "deterministic causal narrative" `Quick
            test_explain_deterministic_and_causal;
          Alcotest.test_case "violation attachment" `Quick
            test_violation_narrative;
          Alcotest.test_case "unknown scenario rejected" `Quick
            test_explain_unknown_scenario;
          Alcotest.test_case "recorder never perturbs a run" `Quick
            test_recorder_zero_perturbation;
        ] );
      ( "hang-probe-guard",
        [
          Alcotest.test_case "never enumerated" `Quick
            test_hang_probe_not_swept;
        ] );
    ]

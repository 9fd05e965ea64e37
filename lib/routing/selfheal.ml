module Graph = Tussle_prelude.Graph
module Rng = Tussle_prelude.Rng
module Flight = Tussle_obs.Flight
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link
module Packet = Tussle_netsim.Packet

type data_plane = {
  probe_interval : float;
  probes_per_sample : int;
  window : int;
  down_ratio : float;
  up_ratio : float;
  transit_probes : bool;
  probe_timeout : float;
  quarantine_s : float;
  probe_seed : int;
}

type damping = {
  penalty : float;
  half_life : float;
  suppress : float;
  reuse : float;
}

type config = {
  hello_interval : float;
  hellos_missed : int;
  recompute_delay : float;
  metric : [ `Latency | `Hops ];
  data_plane : data_plane option;
  damping : damping option;
}

let default_config =
  { hello_interval = 0.05; hellos_missed = 2; recompute_delay = 0.1;
    metric = `Latency; data_plane = None; damping = None }

let default_data_plane =
  {
    probe_interval = 0.05;
    probes_per_sample = 4;
    window = 4;
    down_ratio = 0.5;
    up_ratio = 0.9;
    transit_probes = true;
    probe_timeout = 0.3;
    quarantine_s = 2.0;
    probe_seed = 0x5EED;
  }

let default_damping =
  { penalty = 1.0; half_life = 1.0; suppress = 2.5; reuse = 0.5 }

let verified_config =
  { default_config with
    data_plane = Some default_data_plane;
    damping = Some default_damping }

(* Transit probes are real packets; their ids live in a reserved range
   so observers (and tests) can tell them from scenario traffic. *)
let probe_id_base = 900_000_000

module Window = struct
  (* The last [len] samples of each direction sit in a ring ending just
     before [pos], with their running sums.  Every sample offers the
     same number of probes, so the offered count is
     [len * probes]. *)
  type t = {
    uv : int array;
    vu : int array;
    mutable pos : int;
    mutable len : int;
    mutable uv_sum : int;
    mutable vu_sum : int;
  }

  let create ~window =
    { uv = Array.make window 0; vu = Array.make window 0; pos = 0; len = 0;
      uv_sum = 0; vu_sum = 0 }

  let push w ~uv ~vu =
    let window = Array.length w.uv in
    let k = w.pos in
    if w.len = window then begin
      w.uv_sum <- w.uv_sum - w.uv.(k);
      w.vu_sum <- w.vu_sum - w.vu.(k)
    end
    else w.len <- w.len + 1;
    w.uv.(k) <- uv;
    w.vu.(k) <- vu;
    w.uv_sum <- w.uv_sum + uv;
    w.vu_sum <- w.vu_sum + vu;
    w.pos <- (if k + 1 = window then 0 else k + 1)

  (* Inlined so the detector compares the ratio unboxed. *)
  let[@inline] worst w ~probes =
    if w.len = 0 then 1.0
    else begin
      let offered = float_of_int (w.len * probes) in
      let r_uv = float_of_int w.uv_sum /. offered in
      let r_vu = float_of_int w.vu_sum /. offered in
      (* not [Float.min]: a call that returns a boxed float *)
      if r_vu < r_uv then r_vu else r_uv
    end

  let rec all_deliver links rng i =
    i >= Array.length links
    || (Link.probe links.(i) rng && all_deliver links rng (i + 1))

  let sample rng links n =
    if Array.length links = 0 then n
    else begin
      let ok = ref 0 in
      for _ = 1 to n do
        if all_deliver links rng 0 then incr ok
      done;
      !ok
    end
end

(* One adjacency under watch: every physical link object carrying
   traffic between u and v (both directions; deduplicated in case an
   undirected label is shared), plus the per-direction subsets the
   data-plane detector probes separately — a unidirectional fault
   shows up in exactly one of them.  Arrays, scanned by hand: the
   samplers run every tick for every watch and must not allocate. *)
type watch = {
  u : int;
  v : int;
  links : Link.t array;
  uv_links : Link.t array;
  vu_links : Link.t array;
  mutable missed : int;
  mutable declared_down : bool;  (* the hello detector's verdict *)
  mutable dp_down : bool;  (* the data-plane detector's verdict *)
  win : Window.t;  (* the data-plane detector's probe windows *)
  (* flap damping: an exponentially decaying penalty, charged per
     believed-state flip; the adjacency is suppressed (held down)
     while the penalty sits above the suppress threshold *)
  mutable penalty : float;
  mutable penalty_time : float;
  mutable suppressed : bool;
  (* when a detector flag (declared_down / dp_down / suppressed) last
     cleared: lets the transit-probe judge discount a loss on a leg
     that was believed faulty at any point while the probe was in
     flight, not just at its deadline *)
  mutable flag_cleared_at : float;
}

(* Byzantine-node bookkeeping for the transit prober. *)
type quarantine = {
  mutable active : bool;
  mutable q_until : float;
  mutable strikes : int;  (* escalates the hold time on re-detection *)
  mutable fails : int;  (* consecutive failed transit probes *)
}

(* A transit probe's judgment, as its completion left it. *)
type judgment = Unjudged | Pass | Fail | Inconclusive

(* One slot for a transit probe in flight.  [deadline] is the probe's
   deadline action, built once at attach and reused by every probe that
   takes the slot. *)
type probe = {
  mutable id : int;  (* -1: the slot is free *)
  mutable via : int;
  mutable src : int;
  mutable dst : int;
  mutable sent : float;
  mutable judgment : judgment;
  mutable deadline : Engine.t -> unit;
}

type t = {
  cfg : config;
  engine : Engine.t;
  net : Net.t;
  until : float;
  watches : watch list;
  neighbours : int list array;
  mutable table : Linkstate.t;
  mutable recompute_pending : bool;
  mutable reconvergences : int;
  mutable reconvergence_times : float list; (* reversed *)
  mutable detections : ((int * int) * [ `Down | `Up ] * float) list;
    (* reversed *)
  mutable suppressions : int;
  (* data-plane state (unused when cfg.data_plane = None) *)
  probe_rng : Rng.t;
  quarantines : quarantine array;  (* by node *)
  (* Outstanding transit probes, keyed by
     [(probe id - probe_id_base) mod slot count]; there are more slots
     than probes can be in flight at once (see [probe_slots]). *)
  probes : probe array;
  mutable next_probe_id : int;
}

(* Link objects seen for one adjacency, each list newest first and
   deduplicated by identity. *)
type seen = {
  mutable all : Link.t list;
  mutable fwd : Link.t list;  (* u -> v, u <= v *)
  mutable bwd : Link.t list;  (* v -> u *)
}

let build_watches ~window links =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let add l ls = if List.memq l ls then ls else l :: ls in
  Graph.iter_edges links (fun a b l ->
      let key = if a <= b then (a, b) else (b, a) in
      let s =
        match Hashtbl.find_opt tbl key with
        | Some s -> s
        | None ->
          let s = { all = []; fwd = []; bwd = [] } in
          Hashtbl.replace tbl key s;
          order := key :: !order;
          s
      in
      s.all <- add l s.all;
      (* a self-loop carries both directions *)
      if a <= b then s.fwd <- add l s.fwd;
      if a >= b then s.bwd <- add l s.bwd);
  (* the lists are newest first *)
  let arr ls =
    let a = Array.of_list ls in
    let n = Array.length a in
    for i = 0 to (n / 2) - 1 do
      let x = a.(i) in
      a.(i) <- a.(n - 1 - i);
      a.(n - 1 - i) <- x
    done;
    a
  in
  (* hello-only watches never push a sample: they can share one window *)
  let empty = Window.create ~window:0 in
  List.rev_map
    (fun ((u, v) as key) ->
      let s = Hashtbl.find tbl key in
      {
        u;
        v;
        links = arr s.all;
        uv_links = arr s.fwd;
        vu_links = arr s.bwd;
        missed = 0;
        declared_down = false;
        dp_down = false;
        win = (if window = 0 then empty else Window.create ~window);
        penalty = 0.0;
        penalty_time = 0.0;
        suppressed = false;
        flag_cleared_at = neg_infinity;
      })
    !order

(* Every node's sorted in- and out-neighbours, deduplicated.  The link
   graph is fixed once [Net.create] has run, so [attach] builds this
   once. *)
let neighbour_lists g =
  let nbrs = Array.make (Graph.node_count g) [] in
  Graph.iter_edges g (fun a b _ ->
      nbrs.(a) <- b :: nbrs.(a);
      nbrs.(b) <- a :: nbrs.(b));
  Array.map (List.sort_uniq compare) nbrs

let node_quarantined t node = t.quarantines.(node).active

let believed_down t =
  List.filter_map
    (fun w ->
      if
        w.declared_down || w.dp_down || w.suppressed
        || node_quarantined t w.u || node_quarantined t w.v
      then Some (w.u, w.v)
      else None)
    t.watches

let install t engine =
  t.recompute_pending <- false;
  t.table <-
    Linkstate.compute_live ~down:(believed_down t) (Net.links t.net)
      ~metric:t.cfg.metric;
  Net.set_forwarding t.net (Linkstate.forwarding t.table);
  t.reconvergences <- t.reconvergences + 1;
  t.reconvergence_times <- Engine.now engine :: t.reconvergence_times;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
      ~node:(-1) ~peer:(-1) ~detail:"routes-installed"
      ~value:(float_of_int (List.length (believed_down t)))
      "heal-reconverge"

(* Coalesce: a topology change noticed while a recompute is already
   scheduled folds into that recompute (it reads the believed-down set
   when it fires), mirroring a real control plane's SPF hold-down. *)
let request_recompute t engine =
  if not t.recompute_pending then begin
    t.recompute_pending <- true;
    ignore
      (Engine.schedule_after engine t.cfg.recompute_delay (fun engine ->
           install t engine))
  end

(* ---------- flap damping ---------- *)

let decay_penalty (d : damping) w now =
  if w.penalty > 0.0 then begin
    let dt = now -. w.penalty_time in
    if dt > 0.0 then
      w.penalty <- w.penalty *. (0.5 ** (dt /. d.half_life))
  end;
  w.penalty_time <- now

(* Every believed-state flip of an adjacency routes through here.  With
   damping off it is just a recompute request; with damping on each
   flip charges the penalty, and a watch whose penalty crosses the
   suppress threshold is held down — further flips are absorbed without
   touching the tables until the penalty decays below reuse. *)
let note_flip t w engine =
  match t.cfg.damping with
  | None -> request_recompute t engine
  | Some d ->
    let now = Engine.now engine in
    decay_penalty d w now;
    w.penalty <- w.penalty +. d.penalty;
    if w.suppressed then ()
    else if w.penalty >= d.suppress then begin
      w.suppressed <- true;
      t.suppressions <- t.suppressions + 1;
      if Flight.enabled () then
        Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node:w.u ~peer:w.v
          ~detail:"suppress" ~value:w.penalty "heal-damp";
      request_recompute t engine
    end
    else request_recompute t engine

(* Called from the hello tick (the one timer that always runs): let a
   suppressed watch out of hold-down once its penalty has decayed.  The
   per-tick scans over the watches are hand-written recursions, so they
   allocate no closure. *)
let rec release_watches t (d : damping) engine = function
  | [] -> ()
  | w :: rest ->
    if w.suppressed then begin
      let now = Engine.now engine in
      decay_penalty d w now;
      if w.penalty <= d.reuse then begin
        w.suppressed <- false;
        w.flag_cleared_at <- now;
        if Flight.enabled () then
          Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node:w.u
            ~peer:w.v ~detail:"reuse" ~value:w.penalty "heal-damp";
        request_recompute t engine
      end
    end;
    release_watches t d engine rest

let damping_release t engine =
  match t.cfg.damping with
  | None -> ()
  | Some d -> release_watches t d engine t.watches

(* ---------- the hello (control-plane) detector ---------- *)

let declare t w engine verdict ~detail =
  t.detections <- ((w.u, w.v), verdict, Engine.now engine) :: t.detections;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
      ~node:w.u ~peer:w.v ~detail ~value:0.0 "heal-detect";
  note_flip t w engine

let rec all_up links i =
  i >= Array.length links || (Link.is_up links.(i) && all_up links (i + 1))

let rec hello_watches t engine = function
  | [] -> ()
  | w :: rest ->
    if all_up w.links 0 then begin
      w.missed <- 0;
      if w.declared_down then begin
        w.declared_down <- false;
        w.flag_cleared_at <- Engine.now engine;
        declare t w engine `Up ~detail:"up"
      end
    end
    else begin
      w.missed <- w.missed + 1;
      if (not w.declared_down) && w.missed >= t.cfg.hellos_missed then begin
        w.declared_down <- true;
        declare t w engine `Down ~detail:"down"
      end
    end;
    hello_watches t engine rest

let rec tick t engine =
  hello_watches t engine t.watches;
  damping_release t engine;
  let next = Engine.now engine +. t.cfg.hello_interval in
  if next <= t.until then ignore (Engine.schedule engine next (tick t))

(* ---------- the data-plane detector ---------- *)

(* Windowed delivered/offered accounting with hysteresis: down on
   data-plane evidence even when every hello passes (gray failure,
   unidirectional fault); back up only once the windowed ratio has
   genuinely recovered. *)
let rec dp_sample_adjacencies t (dp : data_plane) engine = function
  | [] -> ()
  | w :: rest ->
    let n = dp.probes_per_sample in
    let uv = Window.sample t.probe_rng w.uv_links n in
    let vu = Window.sample t.probe_rng w.vu_links n in
    Window.push w.win ~uv ~vu;
    let worst = Window.worst w.win ~probes:n in
    if (not w.dp_down) && worst <= dp.down_ratio then begin
      w.dp_down <- true;
      declare t w engine `Down ~detail:"down:data-plane"
    end
    else if w.dp_down && worst >= dp.up_ratio then begin
      w.dp_down <- false;
      w.flag_cleared_at <- Engine.now engine;
      declare t w engine `Up ~detail:"up:data-plane"
    end;
    dp_sample_adjacencies t dp engine rest

(* ---------- transit probes (Byzantine-node detection) ---------- *)

let quarantine t (dp : data_plane) engine node =
  let q = t.quarantines.(node) in
  let now = Engine.now engine in
  let hold = dp.quarantine_s *. (2.0 ** float_of_int q.strikes) in
  q.active <- true;
  q.q_until <- now +. hold;
  q.strikes <- q.strikes + 1;
  q.fails <- 0;
  if Flight.enabled () then
    Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node ~peer:(-1)
      ~detail:"quarantine" ~value:hold "heal-quarantine";
  request_recompute t engine;
  ignore
    (Engine.schedule engine q.q_until (fun engine ->
         if q.active && Engine.now engine >= q.q_until then begin
           q.active <- false;
           if Flight.enabled () then
             Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
               ~node ~peer:(-1) ~detail:"probation" ~value:0.0
               "heal-quarantine";
           request_recompute t engine
         end))

(* Was the (a, b) adjacency flagged by any detector at some point since
   [since]?  Used to avoid blaming a transit node for a loss a link
   fault explains.  Current flags count, and so does a flag that
   cleared after the probe left — a probe can die on a faulty leg and
   only be judged after the detectors have moved on. *)
let rec leg_faulted ~since a b = function
  | [] -> false
  | w :: rest ->
    (((w.u = a && w.v = b) || (w.u = b && w.v = a))
    && (w.declared_down || w.dp_down || w.suppressed
       || w.flag_cleared_at >= since))
    || leg_faulted ~since a b rest

(* Judge a probe at its deadline.  A probe the prober can
   itself explain — no route toward the transit node (e.g. quarantine),
   or a leg of the probe path the link detectors flagged as faulty at
   any point since the probe was sent — is inconclusive, not evidence;
   only a loss with both legs believed healthy throughout reads as a
   silent discard by the transit node. *)
let judge_probe t (dp : data_plane) engine probe =
  let via = probe.via in
  probe.id <- -1;
  match probe.judgment with
  | Pass -> t.quarantines.(via).fails <- 0
  | Inconclusive -> ()
  | Fail | Unjudged ->
    let since = probe.sent in
    if
      not
        (leg_faulted ~since probe.src via t.watches
        || leg_faulted ~since via probe.dst t.watches)
    then begin
      (* lost without explanation, or still unaccounted for at the
         deadline: a strike against the transit node *)
      let q = t.quarantines.(via) in
      q.fails <- q.fails + 1;
      if (not q.active) && q.fails >= 2 then quarantine t dp engine via
    end

let probe_slot t probe_id =
  t.probes.((probe_id - probe_id_base) mod Array.length t.probes)

let dp_send_transit_probes t (dp : data_plane) engine =
  let now = Engine.now engine in
  for via = 0 to Array.length t.neighbours - 1 do
    if not (node_quarantined t via) then begin
      match t.neighbours.(via) with
      | u :: rest when rest <> [] ->
        let v = List.nth rest (Rng.int t.probe_rng (List.length rest)) in
        let probe_id = t.next_probe_id in
        t.next_probe_id <- t.next_probe_id + 1;
        let probe = probe_slot t probe_id in
        if probe.id >= 0 then
          failwith "Selfheal: more transit probes in flight than slots";
        probe.id <- probe_id;
        probe.via <- via;
        probe.src <- u;
        probe.dst <- v;
        probe.sent <- now;
        probe.judgment <- Unjudged;
        let p =
          Packet.make ~id:probe_id ~src:u ~dst:v ~created:now
            ~source_route:[ via ] ~size_bytes:64 ()
        in
        Net.inject t.net engine p;
        ignore (Engine.schedule engine (now +. dp.probe_timeout) probe.deadline)
      | _ -> ()
    end
  done

let rec dp_tick t (dp : data_plane) engine =
  dp_sample_adjacencies t dp engine t.watches;
  if dp.transit_probes then dp_send_transit_probes t dp engine;
  let next = Engine.now engine +. dp.probe_interval in
  (* stop early enough that every probe deadline fires before [until]:
     after that the control plane must go quiet so the engine drains *)
  if next +. dp.probe_timeout <= t.until then
    ignore (Engine.schedule engine next (dp_tick t dp))

(* Completion observer: records the judgment the deadline event reads.
   Runs for every packet; filters by the reserved probe-id range. *)
let observe_probe t p outcome =
  let id = p.Packet.id in
  if id >= probe_id_base then begin
    let probe = probe_slot t id in
    if probe.id = id then
      probe.judgment <-
        (match (outcome : Net.outcome) with
        | Net.Delivered _ -> Pass
        | Net.Lost Net.No_route ->
          (* the prober's own tables couldn't reach the waypoint (it
             may have withdrawn it itself); says nothing about the
             node *)
          Inconclusive
        | Net.Lost _ -> Fail)
  end

(* ---------- attach ---------- *)

let validate_config config =
  if not (config.hello_interval > 0.0) then
    invalid_arg "Selfheal.attach: non-positive hello interval";
  if config.hellos_missed < 1 then
    invalid_arg "Selfheal.attach: hellos_missed < 1";
  if not (config.recompute_delay >= 0.0) then
    invalid_arg "Selfheal.attach: negative recompute delay";
  (match config.data_plane with
  | None -> ()
  | Some dp ->
    if not (dp.probe_interval > 0.0) then
      invalid_arg "Selfheal.attach: non-positive probe interval";
    if dp.probes_per_sample < 1 then
      invalid_arg "Selfheal.attach: probes_per_sample < 1";
    if dp.window < 1 then invalid_arg "Selfheal.attach: window < 1";
    if not (dp.down_ratio >= 0.0 && dp.down_ratio < 1.0) then
      invalid_arg "Selfheal.attach: down_ratio outside [0,1)";
    if not (dp.up_ratio > dp.down_ratio && dp.up_ratio <= 1.0) then
      invalid_arg "Selfheal.attach: up_ratio must be in (down_ratio,1]";
    if not (dp.probe_timeout > 0.0) then
      invalid_arg "Selfheal.attach: non-positive probe timeout";
    if not (dp.quarantine_s > 0.0) then
      invalid_arg "Selfheal.attach: non-positive quarantine");
  match config.damping with
  | None -> ()
  | Some d ->
    if not (d.penalty > 0.0) then
      invalid_arg "Selfheal.attach: non-positive damping penalty";
    if not (d.half_life > 0.0) then
      invalid_arg "Selfheal.attach: non-positive damping half-life";
    if not (d.suppress > 0.0) then
      invalid_arg "Selfheal.attach: non-positive suppress threshold";
    if not (d.reuse >= 0.0 && d.reuse < d.suppress) then
      invalid_arg "Selfheal.attach: reuse must be in [0,suppress)"

(* Slots for outstanding transit probes.  A batch sends at most one
   probe per node, and a probe holds its slot until its deadline,
   [probe_timeout] after the batch; so at most
   [ceil (probe_timeout / probe_interval) + 1] batches are in flight
   at once.  One batch more of slack keeps float drift in the tick
   times from ever mattering. *)
let probe_slots (dp : data_plane) ~nodes =
  let batches = Float.ceil (dp.probe_timeout /. dp.probe_interval) in
  max 1 (nodes * (int_of_float batches + 2))

let attach ?(config = default_config) ~until engine net =
  validate_config config;
  if not (Float.is_finite until) || until < Engine.now engine then
    invalid_arg "Selfheal.attach: until must be finite and >= now";
  let links = Net.links net in
  let table = Linkstate.compute_live links ~metric:config.metric in
  Net.set_forwarding net (Linkstate.forwarding table);
  let nodes = Graph.node_count links in
  let fresh () = { active = false; q_until = 0.0; strikes = 0; fails = 0 } in
  let free_slot _ =
    { id = -1; via = 0; src = 0; dst = 0; sent = 0.0; judgment = Unjudged;
      deadline = ignore }
  in
  let seed, window, quarantines, probes =
    match config.data_plane with
    | Some dp ->
      ( dp.probe_seed, dp.window, Array.init nodes (fun _ -> fresh ()),
        Array.init (probe_slots dp ~nodes) free_slot )
    | None ->
      (* nothing is ever quarantined: every node shares one inactive
         record *)
      (0, 0, Array.make nodes (fresh ()), [||])
  in
  let t =
    {
      cfg = config;
      engine;
      net;
      until;
      watches = build_watches ~window links;
      neighbours = neighbour_lists links;
      table;
      recompute_pending = false;
      reconvergences = 0;
      reconvergence_times = [];
      detections = [];
      suppressions = 0;
      probe_rng = Rng.create seed;
      quarantines;
      probes;
      next_probe_id = probe_id_base;
    }
  in
  let first = Engine.now engine +. config.hello_interval in
  if first <= until then ignore (Engine.schedule engine first (tick t));
  (match config.data_plane with
  | None -> ()
  | Some dp ->
    Array.iter
      (fun probe ->
        probe.deadline <- (fun engine -> judge_probe t dp engine probe))
      t.probes;
    Net.on_complete net (observe_probe t);
    let first = Engine.now engine +. dp.probe_interval in
    if first +. dp.probe_timeout <= until then
      ignore (Engine.schedule engine first (dp_tick t dp)));
  t

let table t = t.table

let reconvergences t = t.reconvergences

let reconvergence_times t = List.rev t.reconvergence_times

let detections t = List.rev t.detections

let suppressions t = t.suppressions

module Graph = Tussle_prelude.Graph
module Metrics = Tussle_obs.Metrics
module Flight = Tussle_obs.Flight

type drop_reason =
  | No_route
  | Queue_full of int * int
  | Filtered of string * int
  | Ttl_exceeded
  | Link_down of int * int
  | Fault_loss of int * int
  | Corrupted of int * int
  | Gray_loss of int * int
  | Blackholed of int

type outcome =
  | Delivered of { latency : float; degraded : bool; tapped : bool }
  | Lost of drop_reason

type forwarding = node:int -> target:int -> Packet.t -> int option

(* One packet's transit.  [arrive_at] is the node the pending arrival
   event delivers it to; [step] is that event's action, built once per
   packet and rescheduled at every hop, so forwarding allocates no
   closure per hop.  [hops] counts [Packet.record_hop]s, so the TTL
   check is O(1) instead of a [List.length] of the hop list. *)
type transit = {
  packet : Packet.t;
  mutable waypoints : int list;
  mutable degraded : bool;
  mutable tapped : bool;
  mutable hops : int;
  mutable arrive_at : int;
  step : Engine.t -> unit;
}

type t = {
  links : Link.t Graph.t;
  (* node u's out-neighbours are [nbr_dst.(u)], each with the
     first-inserted link to it at the same position of [nbr_link.(u)]
     — what [Graph.find_edge] returns *)
  nbr_dst : int array array;
  nbr_link : Link.t array array;
  (* mutable so a control plane can re-converge mid-run (self-healing
     routing swaps in fresh tables while packets are in flight) *)
  mutable forwarding : forwarding;
  middleboxes : Middlebox.t list array;
  (* Byzantine nodes: answer hellos and accept traffic addressed to
     themselves, silently discard everything they'd forward for others *)
  blackholes : bool array;
  transits : (int, transit) Hashtbl.t;
  mutable injected : int;
  mutable outcomes : (Packet.t * outcome) list; (* reversed *)
  mutable observers : (Packet.t -> outcome -> unit) list;
      (* registration order *)
  (* tallies kept as packets complete, so counting never walks
     [outcomes]; losses are keyed by [drop_reason_label] *)
  mutable delivered : int;
  mutable lost : int;
  lost_by_reason : (string, int ref) Hashtbl.t;
  ttl : int;
}

(* The out-neighbour index, in one pass over the edges.  [iter_edges]
   visits node u's edges together and in insertion order, so a
   per-node stamp keeps each neighbour's first edge.  Rows are small
   arrays filled into an array of empty ones, never one large array
   built from a freshly allocated value: [Array.make] of such an array
   forces a minor collection. *)
let neighbour_index links =
  let n = Graph.node_count links in
  let dst = Array.make n [] and lnk = Array.make n [] in
  let stamp = Array.make n (-1) in
  Graph.iter_edges links (fun u v l ->
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        dst.(u) <- v :: dst.(u);
        lnk.(u) <- l :: lnk.(u)
      end);
  let rows lists =
    let a = Array.make n [||] in
    Array.iteri (fun u row -> a.(u) <- Array.of_list row) lists;
    a
  in
  (rows dst, rows lnk)

let create ?(ttl = 64) links forwarding =
  if ttl <= 0 then invalid_arg "Net.create: non-positive ttl";
  let nbr_dst, nbr_link = neighbour_index links in
  let n = Graph.node_count links in
  {
    links;
    nbr_dst;
    nbr_link;
    forwarding;
    middleboxes = Array.make n [];
    blackholes = Array.make n false;
    transits = Hashtbl.create 64;
    injected = 0;
    outcomes = [];
    observers = [];
    delivered = 0;
    lost = 0;
    lost_by_reason = Hashtbl.create 8;
    ttl;
  }

let set_forwarding t forwarding = t.forwarding <- forwarding

let add_middlebox t node mb =
  t.middleboxes.(node) <- t.middleboxes.(node) @ [ mb ]

let middleboxes_at t node = t.middleboxes.(node)

let set_blackhole t node on = t.blackholes.(node) <- on

(* Per-reason drop attribution (handles interned once; each incr is an
   atomic load and a branch while telemetry is disabled). *)
let m_drop_no_route = Metrics.counter "net.drops.no_route"
let m_drop_queue_full = Metrics.counter "net.drops.queue_full"
let m_drop_filtered = Metrics.counter "net.drops.filtered"
let m_drop_ttl = Metrics.counter "net.drops.ttl_exceeded"
let m_drop_link_down = Metrics.counter "net.drops.link_down"
let m_drop_fault_loss = Metrics.counter "net.drops.fault_loss"
let m_drop_corrupted = Metrics.counter "net.drops.corrupted"
let m_drop_gray_loss = Metrics.counter "net.drops.gray_loss"
let m_drop_blackholed = Metrics.counter "net.drops.blackholed"
let m_delivered = Metrics.counter "net.delivered"

let drop_reason_label = function
  | No_route -> "no-route"
  | Queue_full _ -> "queue-full"
  | Filtered (name, _) -> "filtered:" ^ name
  | Ttl_exceeded -> "ttl-exceeded"
  | Link_down _ -> "link-down"
  | Fault_loss _ -> "fault-loss"
  | Corrupted _ -> "corrupted"
  | Gray_loss _ -> "gray-loss"
  | Blackholed _ -> "blackholed"

let count_outcome = function
  | Delivered _ -> Metrics.incr m_delivered
  | Lost No_route -> Metrics.incr m_drop_no_route
  | Lost (Queue_full _) -> Metrics.incr m_drop_queue_full
  | Lost (Filtered _) -> Metrics.incr m_drop_filtered
  | Lost Ttl_exceeded -> Metrics.incr m_drop_ttl
  | Lost (Link_down _) -> Metrics.incr m_drop_link_down
  | Lost (Fault_loss _) -> Metrics.incr m_drop_fault_loss
  | Lost (Corrupted _) -> Metrics.incr m_drop_corrupted
  | Lost (Gray_loss _) -> Metrics.incr m_drop_gray_loss
  | Lost (Blackholed _) -> Metrics.incr m_drop_blackholed

(* Flight-recorder terminus: one event per completed transit, located
   at the node (or link) where the packet's fate was decided. *)
let record_finish ~now ~at p outcome =
  match outcome with
  | Delivered { latency; degraded; tapped } ->
    Flight.emit ~sim_t:now ~flow:p.Packet.id ~node:at ~peer:(-1)
      ~detail:
        (match (degraded, tapped) with
        | true, true -> "degraded,tapped"
        | true, false -> "degraded"
        | false, true -> "tapped"
        | false, false -> "")
      ~value:latency "deliver"
  | Lost reason ->
    let node, peer =
      match reason with
      | No_route | Ttl_exceeded -> (at, -1)
      | Queue_full (u, v) | Link_down (u, v) | Fault_loss (u, v)
      | Corrupted (u, v) | Gray_loss (u, v) ->
        (u, v)
      | Filtered (_, n) | Blackholed n -> (n, -1)
    in
    Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer
      ~detail:(drop_reason_label reason) ~value:0.0 "drop"

let tally t = function
  | Delivered _ -> t.delivered <- t.delivered + 1
  | Lost reason -> (
    t.lost <- t.lost + 1;
    let label = drop_reason_label reason in
    match Hashtbl.find t.lost_by_reason label with
    | n -> incr n
    | exception Not_found -> Hashtbl.add t.lost_by_reason label (ref 1))

let rec notify p outcome = function
  | [] -> ()
  | observe :: rest ->
    observe p outcome;
    notify p outcome rest

let finish t ~now ~at p outcome =
  Hashtbl.remove t.transits p.Packet.id;
  count_outcome outcome;
  tally t outcome;
  if Flight.enabled () then record_finish ~now ~at p outcome;
  t.outcomes <- (p, outcome) :: t.outcomes;
  notify p outcome t.observers

let on_complete t observe = t.observers <- t.observers @ [ observe ]

(* Run the node's middleboxes in attachment order; [Some reason] means
   the packet died here.  Transforms (degrade, tap, drop) land in the
   flight recorder; the drop's own terminus event carries the filtered
   reason, so only non-fatal transforms are emitted here. *)
let rec run_middleboxes ~now node p state = function
  | [] -> None
  | mb :: rest -> begin
    match Middlebox.decide mb p with
    | Middlebox.Forward -> run_middleboxes ~now node p state rest
    | Middlebox.Drop -> Some (Filtered (Middlebox.name mb, node))
    | Middlebox.Degrade ->
      state.degraded <- true;
      if Flight.enabled () then
        Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer:(-1)
          ~detail:(Middlebox.name mb) ~value:0.0 "mb-degrade";
      run_middleboxes ~now node p state rest
    | Middlebox.Tap ->
      state.tapped <- true;
      if Flight.enabled () then
        Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer:(-1)
          ~detail:(Middlebox.name mb) ~value:0.0 "mb-tap";
      run_middleboxes ~now node p state rest
  end

(* The position of [next] in a row of the out-neighbour index, or -1 if
   there is no link to it. *)
let rec find_slot row k next =
  if k >= Array.length row then -1
  else if Array.unsafe_get row k = next then k
  else find_slot row (k + 1) next

let lost_on_link node next = function
  | Link.Queue_full -> Queue_full (node, next)
  | Link.Down -> Link_down (node, next)
  | Link.Loss -> Fault_loss (node, next)
  | Link.Corrupt -> Corrupted (node, next)
  | Link.Gray -> Gray_loss (node, next)
  | Link.Sent -> invalid_arg "Net.lost_on_link: the packet was sent"

let arrive t engine state =
  let p = state.packet in
  let node = state.arrive_at in
  Packet.record_hop p node;
  state.hops <- state.hops + 1;
  let now = Engine.now engine in
  match run_middleboxes ~now node p state t.middleboxes.(node) with
  | Some reason -> finish t ~now ~at:node p (Lost reason)
  | None ->
    (* a Byzantine node silently discards transit traffic — anything
       it would forward for others — while traffic it originates or
       terminates (hellos, packets addressed to it) flows normally *)
    if t.blackholes.(node) && node <> p.Packet.src && node <> p.Packet.dst
    then finish t ~now ~at:node p (Lost (Blackholed node))
    else begin
    (* consume a reached waypoint *)
    (match state.waypoints with
    | w :: rest when w = node -> state.waypoints <- rest
    | _ -> ());
    if node = p.Packet.dst && state.waypoints = [] then
      let latency = now -. p.Packet.created in
      finish t ~now ~at:node p
        (Delivered { latency; degraded = state.degraded; tapped = state.tapped })
    else if state.hops >= t.ttl then
      finish t ~now ~at:node p (Lost Ttl_exceeded)
    else
      let target =
        match state.waypoints with w :: _ -> w | [] -> p.Packet.dst
      in
      match t.forwarding ~node ~target p with
      | None -> finish t ~now ~at:node p (Lost No_route)
      | Some next ->
        if next < 0 || next >= Array.length t.blackholes then
          invalid_arg "Net: forwarding returned a node out of range";
        let k = find_slot t.nbr_dst.(node) 0 next in
        if k < 0 then finish t ~now ~at:node p (Lost No_route)
        else begin
          let link = t.nbr_link.(node).(k) in
          match Link.try_enqueue link ~now p.Packet.size_bytes with
          | Link.Sent ->
            if Flight.enabled () then
              Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer:next
                ~detail:"" ~value:(float_of_int (Link.queue_length link))
                "hop";
            state.arrive_at <- next;
            ignore (Engine.schedule engine (Link.arrival link) state.step)
          | verdict ->
            finish t ~now ~at:node p (Lost (lost_on_link node next verdict))
        end
    end

let inject t engine p =
  if Hashtbl.mem t.transits p.Packet.id then
    invalid_arg "Net.inject: duplicate packet id in flight";
  t.injected <- t.injected + 1;
  let rec state =
    { packet = p; waypoints = p.Packet.source_route; degraded = false;
      tapped = false; hops = List.length p.Packet.hops;
      arrive_at = p.Packet.src; step = (fun engine -> arrive t engine state) }
  in
  Hashtbl.replace t.transits p.Packet.id state;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:p.Packet.id
      ~node:p.Packet.src ~peer:p.Packet.dst
      ~detail:(Packet.app_to_string p.Packet.app)
      ~value:(float_of_int p.Packet.size_bytes) "inject";
  ignore (Engine.schedule engine (Engine.now engine) state.step)

let outcomes t = List.rev t.outcomes

let injected_count t = t.injected

let in_flight t = Hashtbl.length t.transits

let delivered_count t = t.delivered

let lost_count t = t.lost

let delivery_ratio t =
  let n = t.delivered + t.lost in
  if n = 0 then 0.0 else float_of_int t.delivered /. float_of_int n

let losses_by_reason t =
  Hashtbl.fold (fun label n acc -> (label, !n) :: acc) t.lost_by_reason []
  |> List.sort compare

let clear_outcomes t =
  t.outcomes <- [];
  t.delivered <- 0;
  t.lost <- 0;
  Hashtbl.reset t.lost_by_reason

let links t = t.links

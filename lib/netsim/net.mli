(** The packet-level network: links + forwarding + middleboxes + outcomes.

    [Net] wires a link graph to a forwarding policy and executes packet
    transit on a discrete-event {!Engine}.  Middleboxes attached to nodes
    inspect every packet transiting that node (including source and
    destination nodes — a host firewall is a middlebox at the host).

    Loose source routes are honoured: a packet with waypoints is routed
    toward each waypoint in turn using the same forwarding tables, which
    is exactly how user-selected provider-level routes ride on top of
    provider-selected routing (§V-A4).

    {b Allocation contract.}  Forwarding a packet one hop costs the
    hop-list cons of {!Packet.record_hop} plus the boxed floats the
    engine's clock and the link's arrival time pass through; it
    allocates no closure, option or event record.  Each packet's
    transit state and its arrival action are built once, at
    {!inject}, and rescheduled at every hop; the next hop's link comes
    from an out-neighbour index built once by {!create}; the TTL check
    reads a hop counter.  Completion conses one outcome onto
    {!outcomes} and keeps per-reason tallies, so {!delivered_count},
    {!lost_count} and {!losses_by_reason} never walk the outcome list.
    Packets are not pooled: {!outcomes} and the {!on_complete}
    observers keep them. *)

type drop_reason =
  | No_route  (** forwarding returned no next hop *)
  | Queue_full of int * int  (** link (u, v) dropped it *)
  | Filtered of string * int  (** middlebox name, node *)
  | Ttl_exceeded
  | Link_down of int * int  (** injected fault: link (u, v) was down *)
  | Fault_loss of int * int  (** injected fault: lost on the wire (u, v) *)
  | Corrupted of int * int  (** injected fault: damaged crossing (u, v) *)
  | Gray_loss of int * int
      (** injected gray failure: dropped on (u, v) while the link kept
          answering liveness probes *)
  | Blackholed of int
      (** Byzantine discard: the node silently ate transit traffic
          while answering hellos — distinct from [Filtered] so covert
          middlebox failure and Byzantine forwarding are separable in
          {!losses_by_reason} *)

type outcome =
  | Delivered of { latency : float; degraded : bool; tapped : bool }
  | Lost of drop_reason

type forwarding = node:int -> target:int -> Packet.t -> int option
(** Next hop from [node] toward [target] for this packet, or [None]. *)

type t

val create :
  ?ttl:int -> Link.t Tussle_prelude.Graph.t -> forwarding -> t
(** [create links fwd].  [ttl] (default 64) bounds hop count.  The
    link graph must not gain edges afterwards: [create] indexes, for
    every node and out-neighbour, the first link inserted between
    them — the one forwarding uses. *)

val set_forwarding : t -> forwarding -> unit
(** Swap the forwarding function mid-run.  Packets already in flight
    consult the new tables at their {e next} hop — exactly how a
    re-converged control plane behaves.  The swap takes effect for the
    event that runs after it; it never reorders scheduled events. *)

val add_middlebox : t -> int -> Middlebox.t -> unit
(** Attach a middlebox at a node; multiple middleboxes run in attachment
    order.  Raises [Invalid_argument] if the node is not in the link
    graph, as do {!middleboxes_at} and {!set_blackhole}. *)

val middleboxes_at : t -> int -> Middlebox.t list

val set_blackhole : t -> int -> bool -> unit
(** Mark (or unmark) a node as Byzantine: it keeps accepting traffic
    addressed to itself — and keeps answering control-plane hellos,
    which never transit it — but silently discards every packet it
    would forward for others (source-route waypoints included, which
    is exactly how transit probes unmask it). *)

val inject : t -> Engine.t -> Packet.t -> unit
(** Offer a packet to the network at the engine's current time.  The
    outcome is recorded when transit completes (run the engine). *)

val on_complete : t -> (Packet.t -> outcome -> unit) -> unit
(** Register a completion observer, called (in registration order) the
    moment any packet's transit completes — while the engine is still
    running, so observers can schedule follow-up events (ACKs,
    retransmissions).  Observers also see probe traffic; filter by
    packet id. *)

val outcomes : t -> (Packet.t * outcome) list
(** All completed packets, in completion order. *)

val injected_count : t -> int
(** Packets offered via {!inject} over the net's lifetime.  With
    {!in_flight}, the packet-conservation ledger the chaos invariants
    check: [injected_count = delivered + lost + in_flight]. *)

val in_flight : t -> int
(** Packets injected whose transit has not yet completed (their
    arrival events are still in the engine's queue). *)

val delivered_count : t -> int

val lost_count : t -> int

val delivery_ratio : t -> float
(** Delivered / completed; [0.] when nothing completed. *)

val losses_by_reason : t -> (string * int) list
(** Aggregated loss counts keyed by a stable reason label.  Fault
    reasons use the labels ["link-down"], ["fault-loss"],
    ["corrupted"], ["gray-loss"] and ["blackholed"].  When
    {!Tussle_obs.Metrics} is enabled every completion also bumps a
    per-reason counter
    ([net.delivered], [net.drops.no_route], [net.drops.queue_full],
    [net.drops.filtered], [net.drops.ttl_exceeded],
    [net.drops.link_down], [net.drops.fault_loss],
    [net.drops.corrupted], [net.drops.gray_loss],
    [net.drops.blackholed]), attributing drops to their fault. *)

val clear_outcomes : t -> unit
(** Forget every completed packet: {!outcomes} becomes empty and the
    delivered, lost and per-reason counts restart from zero. *)

val links : t -> Link.t Tussle_prelude.Graph.t

val drop_reason_label : drop_reason -> string

(** Link-state routing (OSPF-like): every node floods its link costs,
    every node computes shortest paths over the full map.

    The tussle-relevant property (§IV-C): a link-state protocol "requires
    that everyone export his link costs" — internal choices are fully
    visible, and there is no per-neighbour policy lever.  The routing
    visibility experiment contrasts this with path-vector.

    As in the protocol, each router computes its own routes: a table
    takes one snapshot of the flooded costs ({!Tussle_prelude.Graph.Spf}),
    and a source's shortest-path tree is computed the first time
    {!next_hop}, {!path} or {!distance} asks about that source, then
    kept.  Each computed tree counts once in the [routing.spf.trees]
    metric.

    A table fills its trees in place and shares one kernel heap, so it
    belongs to one simulation, which means one domain: do not query the
    same table from two domains. *)

type t

val compute :
  Tussle_netsim.Topology.edge Tussle_prelude.Graph.t ->
  metric:[ `Latency | `Hops ] ->
  t
(** Snapshot the flooded map, in O(n + m).  No tree is computed yet. *)

val compute_live :
  ?down:(int * int) list ->
  Tussle_netsim.Link.t Tussle_prelude.Graph.t ->
  metric:[ `Latency | `Hops ] ->
  t
(** Snapshot the map from a {e live} link graph, withdrawing every
    link between a pair in [down] (either orientation) — the step a
    self-healing control plane runs after failure detection
    ({!Selfheal}).  Like {!compute}, this is O(n + m) and computes
    no tree.  Withdrawn links are absent from
    {!visible_link_costs}, and destinations reachable only through
    them become unreachable ([next_hop = None]).  [down] reflects what
    the control plane has {e detected}, not ground truth: a link that
    died a moment ago but has not yet missed enough hellos is still
    routed over. *)

val next_hop : t -> node:int -> dst:int -> int option
(** Forwarding table lookup: O(1) and allocation-free once [node]'s
    tree is computed. *)

val distance : t -> src:int -> dst:int -> float option

val path : t -> src:int -> dst:int -> int list option
(** Full path [src; ...; dst]. *)

val forwarding : t -> Tussle_netsim.Net.forwarding
(** Adapt to the simulator's forwarding signature ([target]-based, so
    loose source routes work unchanged). *)

val visible_link_costs : t -> (int * int * float) list
(** Every (u, v, cost) in the flooded database — what {e any} participant
    (or competitor) can read.  This is the protocol's information
    exposure. *)

val node_count : t -> int

(** Directed graphs with integer nodes and labelled edges.

    Nodes are dense integers [0 .. node_count - 1].  Edge labels carry
    whatever the client needs (link metadata, business relationships).
    Shortest paths are computed against a client-supplied non-negative
    weight function, so the same graph serves latency, cost, and hop
    metrics. *)

type 'e t
(** A graph whose edges are labelled with ['e]. *)

val create : int -> 'e t
(** [create n] makes a graph with nodes [0 .. n-1] and no edges. *)

val node_count : 'e t -> int

val edge_count : 'e t -> int

val add_edge : 'e t -> int -> int -> 'e -> unit
(** [add_edge g u v label] adds a directed edge.  Multiple edges between the
    same pair are permitted.  Raises [Invalid_argument] on out-of-range
    nodes. *)

val add_undirected : 'e t -> int -> int -> 'e -> unit
(** Adds both [u -> v] and [v -> u] with the same label. *)

val succ : 'e t -> int -> (int * 'e) list
(** Out-neighbours with edge labels, in insertion order. *)

val find_edge : 'e t -> int -> int -> 'e option
(** First edge label from [u] to [v], if any. *)

val iter_edges : 'e t -> (int -> int -> 'e -> unit) -> unit
(** Every edge: nodes in increasing order, each node's out-edges in
    insertion order.  Allocates nothing beyond its own closure. *)

val fold_edges : 'e t -> init:'a -> f:('a -> int -> int -> 'e -> 'a) -> 'a

val map_edges : 'e t -> ('e -> 'f) -> 'f t

(** {1 Shortest paths}

    Every shortest-path query runs one single-source SPF kernel,
    {!Spf.run}, over a compressed-sparse-row snapshot of the edge
    costs. *)

module Spf : sig
  type 'e graph := 'e t

  type t
  (** A snapshot of a graph's edge costs in CSR form (int-indexed
      offset, destination and cost arrays) plus the kernel's
      preallocated struct-of-arrays heap.  Row [u] lists [u]'s
      out-edges in {e reverse} insertion order, the order the kernel
      relaxes them in.  Later changes to the graph do not reach the
      snapshot.  The heap is reused by every {!run}, so a snapshot
      belongs to one domain at a time. *)

  val snapshot : 'e graph -> cost:(int -> int -> 'e -> float) -> t
  (** [snapshot g ~cost] reads [cost u v label] once per edge, in
      O(n + m).  Raises [Invalid_argument "Graph.dijkstra: negative
      weight"] if any cost is negative, reached from a source or not.
      An [infinity] cost masks an edge: it never relaxes a distance. *)

  val node_count : t -> int

  val iter_costs : t -> (int -> int -> float -> unit) -> unit
  (** Every [(u, v, cost)] in the order {!iter_edges} visits the graph's
      edges. *)

  val run :
    t ->
    source:int ->
    dist:float array ->
    pred:int array ->
    order:int array ->
    int
  (** [run s ~source ~dist ~pred ~order] is Dijkstra from [source].  The
      three arrays need at least [node_count s] cells.  It overwrites
      [dist] (distance, [infinity] if unreachable) and [pred]
      (predecessor, [-1] for the source and unreachable nodes), writes
      the settled nodes into [order] in settle order (the source first,
      and every node after its predecessor), and returns how many were
      settled.  The heap
      breaks key ties FIFO by push, and [pred] changes only on a strict
      improvement, so every tie goes to the edge relaxed first.  A run
      allocates nothing.  Raises [Invalid_argument] on an out-of-range
      source or a short array. *)
end

val dijkstra :
  'e t -> weight:('e -> float) -> source:int -> float array * int array
(** [dijkstra g ~weight ~source] returns [(dist, pred)]: distance from
    [source] to every node ([infinity] if unreachable) and predecessor node
    ([-1] for the source and unreachable nodes).  [weight] must be
    non-negative on every edge; a negative weight raises
    [Invalid_argument].  One {!Spf.snapshot} and one {!Spf.run}. *)

val shortest_path :
  'e t -> weight:('e -> float) -> int -> int -> (float * int list) option
(** [shortest_path g ~weight u v] is [Some (dist, path)] where [path] is the
    node sequence [u; ...; v], or [None] if unreachable. *)

val bfs_order : 'e t -> int -> int list
(** Nodes reachable from a source in breadth-first order. *)

val is_connected : 'e t -> bool
(** True when every node is reachable from node 0 in the underlying
    directed sense.  Vacuously true for the empty graph. *)

val transpose : 'e t -> 'e t
(** Reverse every edge. *)

val degree_histogram : 'e t -> (int * int) list
(** [(out_degree, how_many_nodes)] pairs, ascending by degree. *)

module Graph = Tussle_prelude.Graph
module Metrics = Tussle_obs.Metrics
module Topology = Tussle_netsim.Topology
module Link = Tussle_netsim.Link

(* One source's shortest-path tree.  [first.(dst)] is the first hop
   from the source toward [dst] ([None] for the source itself and for
   unreachable nodes), a cell shared from the table's [hops]. *)
type tree = {
  dist : float array;
  pred : int array;
  first : int option array;
}

type t = {
  n : int;
  spf : Graph.Spf.t;
  trees : tree array; (* [unbuilt] until the source is first queried *)
  hops : int option array; (* hops.(v) = Some v *)
  order : int array; (* settle-order scratch *)
}

let m_trees = Metrics.counter "routing.spf.trees"

let unbuilt = { dist = [||]; pred = [||]; first = [||] }

let of_snapshot spf =
  let n = Graph.Spf.node_count spf in
  {
    n;
    spf;
    trees = Array.make n unbuilt;
    hops = Array.init n Option.some;
    order = Array.make n 0;
  }

let compute g ~metric =
  let cost _ _ (e : Topology.edge) =
    match metric with `Latency -> e.Topology.latency | `Hops -> 1.0
  in
  of_snapshot (Graph.Spf.snapshot g ~cost)

(* An [infinity] cost masks an edge completely: it can never relax a
   distance, so a node reachable only through masked edges stays at
   [dist = infinity] — unreachable, exactly like a withdrawn link. *)
let compute_live ?(down = []) links ~metric =
  let n = Graph.node_count links in
  let pair u v = if u <= v then (u * n) + v else (v * n) + u in
  let dead = Hashtbl.create 16 in
  (* a pair naming no node matches no link, and must not alias one *)
  List.iter
    (fun (u, v) ->
      if u >= 0 && u < n && v >= 0 && v < n then
        Hashtbl.replace dead (pair u v) ())
    down;
  let cost u v l =
    if Hashtbl.mem dead (pair u v) then infinity
    else match metric with `Latency -> Link.latency l | `Hops -> 1.0
  in
  of_snapshot (Graph.Spf.snapshot links ~cost)

(* The settle order lists every node after its predecessor, so one
   pass over it fills the first-hop row. *)
let tree t src =
  let tr = t.trees.(src) in
  if tr != unbuilt then tr
  else begin
    let dist = Array.make t.n infinity and pred = Array.make t.n (-1) in
    let settled = Graph.Spf.run t.spf ~source:src ~dist ~pred ~order:t.order in
    let first = Array.make t.n None in
    for i = 1 to settled - 1 do
      let v = t.order.(i) in
      let p = pred.(v) in
      first.(v) <- (if p = src then t.hops.(v) else first.(p))
    done;
    let tr = { dist; pred; first } in
    t.trees.(src) <- tr;
    Metrics.incr m_trees;
    tr
  end

let check t node name =
  if node < 0 || node >= t.n then invalid_arg (name ^ ": node out of range")

let path t ~src ~dst =
  check t src "Linkstate.path";
  check t dst "Linkstate.path";
  let tr = tree t src in
  if tr.dist.(dst) = infinity then None
  else begin
    let rec build node acc =
      if node = src then src :: acc else build tr.pred.(node) (node :: acc)
    in
    Some (build dst [])
  end

let next_hop t ~node ~dst =
  check t node "Linkstate.next_hop";
  check t dst "Linkstate.next_hop";
  (tree t node).first.(dst)

let distance t ~src ~dst =
  check t src "Linkstate.distance";
  check t dst "Linkstate.distance";
  let d = (tree t src).dist.(dst) in
  if d = infinity then None else Some d

let forwarding t ~node ~target packet =
  ignore packet;
  next_hop t ~node ~dst:target

let visible_link_costs t =
  let acc = ref [] in
  Graph.Spf.iter_costs t.spf (fun u v w ->
      if Float.is_finite w then acc := (u, v, w) :: !acc);
  List.rev !acc

let node_count t = t.n

type 'e t = {
  n : int;
  adj : (int * 'e) list array; (* reversed insertion order internally *)
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make (max n 1) []; edges = 0 }

let node_count g = g.n

let edge_count g = g.edges

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg (name ^ ": node out of range")

let add_edge g u v label =
  check_node g u "Graph.add_edge";
  check_node g v "Graph.add_edge";
  g.adj.(u) <- (v, label) :: g.adj.(u);
  g.edges <- g.edges + 1

let add_undirected g u v label =
  add_edge g u v label;
  add_edge g v u label

let succ g u =
  check_node g u "Graph.succ";
  List.rev g.adj.(u)

let find_edge g u v =
  check_node g u "Graph.find_edge";
  check_node g v "Graph.find_edge";
  let rec last_match acc = function
    | [] -> acc
    | (w, e) :: rest -> last_match (if w = v then Some e else acc) rest
  in
  (* adj is reversed, so the last match in it is the first inserted. *)
  last_match None g.adj.(u)

(* [adj] holds each row newest first: visit the tail before the head
   to get insertion order without copying the row. *)
let iter_edges g f =
  let rec row u = function
    | [] -> ()
    | (v, e) :: rest ->
      row u rest;
      f u v e
  in
  for u = 0 to g.n - 1 do
    row u g.adj.(u)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v e -> acc := f !acc u v e);
  !acc

let map_edges g fn =
  let h = create g.n in
  iter_edges g (fun u v e -> add_edge h u v (fn e));
  h

(* ---------- the SPF kernel ---------- *)

type 'e graph = 'e t

module Spf = struct
  (* A CSR snapshot of the costs plus the kernel's scratch.  Row [u] is
     [dst.(off.(u)) .. dst.(off.(u+1) - 1)] with the matching [cost]
     entries, in reverse insertion order, as the list adjacency holds
     them.  Relaxation order decides equal-cost ties, so changing it
     would change the paths the simulator picks.  The heap is
     struct-of-arrays with capacity m + 1: a node is pushed only on a
     strict improvement, which each edge makes at most once per run
     (its tail is settled once), plus the source. *)
  type t = {
    n : int;
    off : int array;
    dst : int array;
    cost : float array;
    keys : float array;
    seqs : int array;
    nodes : int array;
    mutable size : int;
    mutable next_seq : int;
    settled : Bytes.t;
  }

  let snapshot (g : _ graph) ~cost =
    let off = Array.make (g.n + 1) 0 in
    for u = 0 to g.n - 1 do
      off.(u + 1) <- off.(u) + List.length g.adj.(u)
    done;
    let m = off.(g.n) in
    let dst = Array.make m 0 and costs = Array.make m 0.0 in
    for u = 0 to g.n - 1 do
      List.iteri
        (fun k (v, e) ->
          let w = cost u v e in
          if w < 0.0 then invalid_arg "Graph.dijkstra: negative weight";
          dst.(off.(u) + k) <- v;
          costs.(off.(u) + k) <- w)
        g.adj.(u)
    done;
    {
      n = g.n;
      off;
      dst;
      cost = costs;
      keys = Array.make (m + 1) 0.0;
      seqs = Array.make (m + 1) 0;
      nodes = Array.make (m + 1) 0;
      size = 0;
      next_seq = 0;
      settled = Bytes.make g.n '\000';
    }

  let node_count s = s.n

  let iter_costs s f =
    for u = 0 to s.n - 1 do
      for i = s.off.(u + 1) - 1 downto s.off.(u) do
        f u s.dst.(i) s.cost.(i)
      done
    done

  (* Heap order is (key, push seq), so ties pop FIFO as in [Pqueue].
     A pushed entry carries the largest seq so far, so it moves above
     a parent only on a strictly smaller key. *)
  let[@inline] push s key node =
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let i = ref s.size in
    s.size <- !i + 1;
    while !i > 0 && key < s.keys.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      s.keys.(!i) <- s.keys.(p);
      s.seqs.(!i) <- s.seqs.(p);
      s.nodes.(!i) <- s.nodes.(p);
      i := p
    done;
    s.keys.(!i) <- key;
    s.seqs.(!i) <- seq;
    s.nodes.(!i) <- node

  let[@inline] before s i key seq =
    let k = s.keys.(i) in
    k < key || (k = key && s.seqs.(i) < seq)

  let pop_root s =
    let last = s.size - 1 in
    s.size <- last;
    if last > 0 then begin
      let key = s.keys.(last) and seq = s.seqs.(last)
      and node = s.nodes.(last) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < last && before s (l + 1) s.keys.(l) s.seqs.(l) then l + 1
          else l
        in
        if c < last && before s c key seq then begin
          s.keys.(!i) <- s.keys.(c);
          s.seqs.(!i) <- s.seqs.(c);
          s.nodes.(!i) <- s.nodes.(c);
          i := c
        end
        else sifting := false
      done;
      s.keys.(!i) <- key;
      s.seqs.(!i) <- seq;
      s.nodes.(!i) <- node
    end

  let run s ~source ~dist ~pred ~order =
    if source < 0 || source >= s.n then
      invalid_arg "Graph.Spf.run: node out of range";
    Array.fill dist 0 s.n infinity;
    Array.fill pred 0 s.n (-1);
    Bytes.fill s.settled 0 s.n '\000';
    s.size <- 0;
    s.next_seq <- 0;
    dist.(source) <- 0.0;
    push s 0.0 source;
    let count = ref 0 in
    while s.size > 0 do
      let d = s.keys.(0) and u = s.nodes.(0) in
      pop_root s;
      if Bytes.get s.settled u = '\000' then begin
        Bytes.set s.settled u '\001';
        order.(!count) <- u;
        incr count;
        for i = s.off.(u) to s.off.(u + 1) - 1 do
          let v = s.dst.(i) in
          let nd = d +. s.cost.(i) in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- u;
            push s nd v
          end
        done
      end
    done;
    !count
end

let dijkstra g ~weight ~source =
  check_node g source "Graph.dijkstra";
  let spf = Spf.snapshot g ~cost:(fun _ _ e -> weight e) in
  let dist = Array.make g.n infinity and pred = Array.make g.n (-1) in
  ignore (Spf.run spf ~source ~dist ~pred ~order:(Array.make g.n 0));
  (dist, pred)

let shortest_path g ~weight u v =
  let dist, pred = dijkstra g ~weight ~source:u in
  if dist.(v) = infinity then None
  else begin
    let rec build node acc =
      if node = u then u :: acc else build pred.(node) (node :: acc)
    in
    Some (dist.(v), build v [])
  end

let bfs_order g source =
  check_node g source "Graph.bfs_order";
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order := u :: !order;
    let visit (v, _) =
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v queue
      end
    in
    List.iter visit (List.rev g.adj.(u))
  done;
  List.rev !order

let is_connected g =
  g.n = 0 || List.length (bfs_order g 0) = g.n

let transpose g =
  let h = create g.n in
  iter_edges g (fun u v e -> add_edge h v u e);
  h

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to g.n - 1 do
    let d = List.length g.adj.(u) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt tbl d) in
    Hashtbl.replace tbl d (cur + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

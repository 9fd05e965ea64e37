(** A self-healing link-state control plane.

    PR 4 made faults injectable; this module makes routing {e recover}
    from them instead of draining traffic into a black hole until the
    plan restores the link.  A [Selfheal.t] attached to a live
    {!Tussle_netsim.Net} samples every adjacency's liveness on a hello
    timer, declares a link down after a configurable number of
    consecutive missed hellos (and up again on the first good one),
    and — one recompute delay later — swaps a freshly computed
    {!Linkstate} forwarding table into the net via
    {!Tussle_netsim.Net.set_forwarding}.  Packets in flight consult
    the new table at their next hop.

    Hello sampling reads {!Tussle_netsim.Link.is_up} — the control
    plane's view — which a whole family of faults leaves untouched: a
    gray-loss episode drops data while hellos pass, a unidirectional
    fault kills one direction, a Byzantine node answers hellos while
    silently discarding transit traffic.  The optional {!data_plane}
    detector closes that gap with evidence from the data plane itself:
    windowed delivered/offered probe accounting per adjacency
    direction (via {!Tussle_netsim.Link.probe}, which never perturbs
    traffic or fault streams), and seeded end-to-end transit probes —
    real packets source-routed through each candidate node — whose
    silent disappearance unmasks a blackhole and quarantines it.  The
    optional {!damping} config adds route-flap damping: each
    believed-state flip charges an exponentially decaying penalty, and
    an adjacency whose penalty crosses the suppress threshold is held
    down until the penalty decays to reuse, bounding the recompute
    churn a flapping link can extort.

    The control plane acts only on what it has {e detected}: between a
    link dying and the hello timeout expiring, traffic still drops on
    the dead link.  That detection window — plus the recompute delay —
    is the convergence time E29 measures, and the knob the paper's
    "design for variation in outcome" argument turns. *)

type data_plane = {
  probe_interval : float;  (** seconds between probe batches *)
  probes_per_sample : int;
      (** virtual probes per adjacency direction per batch *)
  window : int;  (** sliding window length, in batches *)
  down_ratio : float;
      (** declare down when the windowed delivered/offered ratio of
          either direction falls to this or below *)
  up_ratio : float;
      (** declare back up once the windowed ratio recovers to this or
          above (hysteresis: must exceed [down_ratio]) *)
  transit_probes : bool;
      (** send end-to-end probes through each candidate transit node *)
  probe_timeout : float;
      (** deadline after which an unanswered transit probe counts as a
          silent discard *)
  quarantine_s : float;
      (** base exclusion time for a detected blackhole; doubles on
          each re-detection *)
  probe_seed : int;  (** rng seed for all probe draws *)
}

type damping = {
  penalty : float;  (** charged per believed-state flip *)
  half_life : float;  (** seconds for the penalty to decay by half *)
  suppress : float;  (** hold the adjacency down above this *)
  reuse : float;  (** release it once decayed to this *)
}

type config = {
  hello_interval : float;  (** seconds between liveness samples *)
  hellos_missed : int;
      (** consecutive missed hellos before a link is declared down *)
  recompute_delay : float;
      (** control-plane delay between detection and new tables taking
          effect (SPF computation + flooding, coalescing bursts) *)
  metric : [ `Latency | `Hops ];  (** cost metric for recomputed paths *)
  data_plane : data_plane option;
      (** [None]: hello-only detection, the pre-gray behavior *)
  damping : damping option;  (** [None]: every flip recomputes *)
}

val default_config : config
(** 50 ms hellos, 2 missed, 100 ms recompute, [`Latency] metric, no
    data-plane detector, no damping: detection + installation in
    roughly 200 ms, byte-identical to the pre-data-plane control
    plane. *)

val default_data_plane : data_plane
(** 50 ms batches of 4 probes per direction, window 4, down at <= 50%
    delivered, up at >= 90%, transit probes with a 300 ms deadline,
    2 s base quarantine. *)

val verified_config : config
(** {!default_config} plus {!default_data_plane} and flap damping at
    penalty 1 per flip, 1 s half-life, suppress at 2.5 and reuse at
    0.5: the data-plane-verified control plane E30 contrasts against
    hello-only healing. *)

val probe_id_base : int
(** Transit-probe packets carry ids from this range (900 000 000 and
    up) so observers and tests can separate them from scenario
    traffic.  Scenario flows must stay below it. *)

(** The data-plane detector's evidence for one adjacency: a sliding
    window of per-direction probe samples.  Exposed so its arithmetic
    can be tested on its own; {!attach} keeps one per watched
    adjacency.  Nothing here allocates. *)
module Window : sig
  type t

  val create : window:int -> t
  (** An empty window holding up to [window] samples per direction. *)

  val push : t -> uv:int -> vu:int -> unit
  (** Record one sample per direction (probes delivered), evicting the
      oldest pair once the window is full. *)

  val worst : t -> probes:int -> float
  (** The lower of the two directions' delivered/offered ratios over
      the window, each sample having offered [probes] probes; [1.0]
      while the window is empty. *)

  val sample :
    Tussle_prelude.Rng.t -> Tussle_netsim.Link.t array -> int -> int
  (** [sample rng links n] sends [n] virtual probes along one direction
      and returns how many got through.  A probe gets through iff every
      link in [links] passes {!Tussle_netsim.Link.probe}, tried in
      order and stopping at the first failure (so the number of draws
      from [rng] depends on the outcomes).  A direction with no links
      delivers all [n]. *)
end

type t

val attach :
  ?config:config ->
  until:float ->
  Tussle_netsim.Engine.t ->
  Tussle_netsim.Net.t ->
  t
(** [attach ~until engine net] computes initial tables from the net's
    link graph, installs them, and schedules hello ticks every
    [hello_interval] up to simulation time [until] (after which the
    control plane goes quiet, so the engine can drain — chaos
    scenarios rely on this bound).  With a [data_plane] config, probe
    batches tick every [probe_interval], stopping early enough that
    every probe deadline also lands before [until].  Raises
    [Invalid_argument] on a non-positive hello interval,
    [hellos_missed < 1], a negative recompute delay, a non-finite
    [until] in the past, or a malformed [data_plane]/[damping]
    sub-config (non-positive intervals/timeouts, [down_ratio] outside
    [0,1), [up_ratio] not in ([down_ratio],1], [reuse] not in
    [0,[suppress])). *)

val table : t -> Linkstate.t
(** The currently installed forwarding table. *)

val believed_down : t -> (int * int) list
(** Adjacencies currently withdrawn, in watch order: hello-declared
    down, data-plane-declared down, damping-suppressed, or incident to
    a quarantined node (what the control plane believes, which lags
    ground truth by the detection window). *)

val reconvergences : t -> int
(** Number of table recomputations installed so far (a down {e and}
    the later restore each count one; bursts coalesce). *)

val reconvergence_times : t -> float list
(** Simulation times at which new tables took effect, oldest first.
    E29's convergence time is [install_time - fault_time]. *)

val detections : t -> ((int * int) * [ `Down | `Up ] * float) list
(** Every liveness-state flip a detector declared, oldest first —
    hello and data-plane verdicts interleaved. *)

val suppressions : t -> int
(** Times any adjacency entered damping hold-down. *)

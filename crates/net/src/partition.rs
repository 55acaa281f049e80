//! Region-partitioned fabric state: the one hop model of the 21364
//! router, for the fault campaigns' epoch engine and for the load tests'
//! [`NetworkSim`](crate::NetworkSim).
//!
//! This module splits the fabric into per-region slices so the
//! conservative epoch engine ([`alphasim_kernel::shard::EpochExecutor`])
//! can advance each torus row band on its own core; `NetworkSim` runs the
//! whole fabric as one region behind a single event queue:
//!
//! * [`FabricTables`] is the **shared, immutable** routing snapshot —
//!   topology, route tables over the live fabric, link liveness, drain
//!   flags, and the [`RegionMap`]. Workers hold it behind an [`Arc`]; only
//!   the barrier coordinator mutates its master copy (fault strikes) and
//!   republishes. Between barriers the snapshot is constant, which is what
//!   makes per-region routing decisions safe without locks.
//! * [`RegionNet`] is one region's **owned, mutable** slice: the [`Link`]
//!   state (queues, occupancy, degradation, pauses) of every directed link
//!   whose *sending* node the region owns, plus the packets queued on
//!   them. A packet in flight between hops lives inside its pending
//!   `Arrive` event, not in any region — hop handoff is event handoff.
//!
//! The hop arithmetic — grant, congestion penalty, serialization-once and
//! wire flight, plus the fault terms: the degrade stretch and the CRC
//! retransmit — lives only in [`RegionNet`]'s `start_transfer`. On a
//! healthy fabric at zero load it reduces to the analytic
//! [`NetworkSim::unloaded_latency`](crate::NetworkSim::unloaded_latency),
//! checked in `hop_math_matches_networksim_zero_load`. Determinism
//! across shard counts follows because every event touches only its own
//! node's links and every simultaneous pair of events is ordered by a
//! shard-count-invariant tiebreak (see the `tb_*` constructors).

use std::sync::Arc;

use alphasim_kernel::{SimDuration, SimTime};
use alphasim_telemetry::trace::{PID_LINKS, PID_MESSAGES};
use alphasim_telemetry::{HopBreakdown, Timeline, TraceSink};
use alphasim_topology::route::{RoutePolicy, Routes};
use alphasim_topology::{Coord, Direction, LinkClass, NodeId, Port, Topology};

use crate::link::Link;
use crate::msg::{MessageClass, MessageId};
use crate::region::RegionMap;
use crate::timing::LinkTiming;

/// Why a live fault could not be applied (or survived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// No such link exists in the underlying topology.
    NoSuchLink {
        /// One claimed end of the link.
        a: NodeId,
        /// The other claimed end.
        b: NodeId,
    },
    /// The link is already in the requested liveness state.
    AlreadyInState {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// The state it is already in.
        alive: bool,
    },
    /// Failing the link would disconnect at least one endpoint pair; the
    /// failure was rolled back and the fabric left routable.
    Partitioned {
        /// An endpoint that would lose reachability.
        from: NodeId,
        /// The endpoint it could no longer reach.
        to: NodeId,
    },
    /// The link is in a state that rejects the requested transition (e.g.
    /// degrading a dead link, or corrupting a flit on one).
    BadState {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// Why the transition is rejected.
        what: &'static str,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::NoSuchLink { a, b } => write!(f, "no link {a}<->{b} in the fabric"),
            FaultError::AlreadyInState { a, b, alive } => {
                let state = if *alive { "alive" } else { "dead" };
                write!(f, "link {a}<->{b} is already {state}")
            }
            FaultError::Partitioned { from, to } => {
                write!(
                    f,
                    "failure would partition the fabric: {from} cannot reach {to}"
                )
            }
            FaultError::BadState { a, b, what } => {
                write!(f, "link {a}<->{b} {what}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Tiebreak kind tag for packet `Arrive` events (low bits: packet uid).
pub fn tb_arrive(uid: u64) -> u64 {
    debug_assert!(uid < 1 << 61, "packet uid overflows the tiebreak");
    (1 << 61) | uid
}

/// Tiebreak kind tag for `LinkFree` events (low bits: global link id).
pub fn tb_link_free(link: usize) -> u64 {
    (2 << 61) | link as u64
}

/// Tiebreak kind tag for coherence timer events (low bits: transaction
/// tag).
pub fn tb_timer(tag: u64) -> u64 {
    debug_assert!(tag < 1 << 61, "timer tag overflows the tiebreak");
    (3 << 61) | tag
}

/// Tiebreak kind tag for window-refill injection events (low bits: cpu
/// index).
pub fn tb_inject(cpu: usize) -> u64 {
    (4 << 61) | cpu as u64
}

/// A message travelling the partitioned fabric. A `Packet` is an owned
/// value: queued packets live in their sending region's slab, in-flight
/// packets live inside their pending `Arrive` event, and the closed-loop
/// payload `P` (e.g. the served-request telemetry leg a response carries
/// home) rides along.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual-channel class.
    pub class: MessageClass,
    /// Payload size.
    pub bytes: u64,
    /// Caller correlation tag (the coherence transaction id).
    pub tag: u64,
    /// Shard-count-invariant identity; also the low bits of the packet's
    /// `Arrive` tiebreak. Derived from simulation identities (tag, attempt,
    /// direction), never from slots or arrival order.
    pub uid: u64,
    /// When the packet entered the fabric.
    pub injected_at: SimTime,
    /// Hops taken so far (also the routing progress index).
    pub hops: u32,
    /// Whether the serialization latency has been paid (first hop only).
    pub serialized: bool,
    /// When the packet joined its current output queue.
    pub enqueued_at: SimTime,
    /// Per-hop latency attribution, accumulated across hops.
    pub acc: HopBreakdown,
    /// Closed-loop payload riding the packet.
    pub payload: P,
}

impl<P> Packet<P> {
    /// End-to-end latency once delivered at `at`.
    pub fn latency(&self, at: SimTime) -> SimDuration {
        at.since(self.injected_at)
    }
}

/// What [`RegionNet`] asks its caller to do next: schedule follow-up
/// events (the caller owns the outbox and the event vocabulary) or
/// consume a delivery.
#[derive(Debug)]
pub enum NetStep<P> {
    /// Schedule an `Arrive { node, pkt }` in `node`'s region at `at` with
    /// tiebreak [`tb_arrive`]`(pkt.uid)`.
    Arrive {
        /// Arrival instant.
        at: SimTime,
        /// Node the packet lands on.
        node: NodeId,
        /// The packet in flight.
        pkt: Box<Packet<P>>,
    },
    /// Schedule a `LinkFree { link }` in the sending region at `at` with
    /// tiebreak [`tb_link_free`]`(link)`.
    LinkFree {
        /// Release instant.
        at: SimTime,
        /// Global link id.
        link: usize,
    },
    /// The packet reached its destination at the current event time.
    Delivered {
        /// The delivered packet.
        pkt: Box<Packet<P>>,
    },
}

/// The packet most recently granted onto a link, for barrier-time drop
/// condemnation. The ticket is *not* cleared on arrival — the coordinator
/// treats a ticket whose `arrive_at` is before the barrier as stale (its
/// `Arrive` already fired, so nothing is on the wire).
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The packet's shard-invariant identity.
    pub uid: u64,
    /// Its correlation tag.
    pub tag: u64,
    /// When its pending `Arrive` fires.
    pub arrive_at: SimTime,
    /// The node it will land on.
    pub dest: NodeId,
}

/// The live (non-failed) ports of the fabric, materialized so route
/// computation and `minimal_ports` see the same port indexing after a
/// failure.
struct LivePorts<'a, T: Topology> {
    inner: &'a T,
    ports: &'a [Vec<Port>],
}

impl<T: Topology> Topology for LivePorts<'_, T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, node: NodeId) -> bool {
        self.inner.is_endpoint(node)
    }

    fn coord(&self, node: NodeId) -> Option<Coord> {
        self.inner.coord(node)
    }
}

/// The shared routing snapshot of a partitioned fabric.
///
/// Workers read it behind an [`Arc`] and never mutate it; the barrier
/// coordinator keeps a master copy, applies fault strikes to that, and
/// republishes a fresh `Arc` to every region — so a route lookup inside an
/// epoch always sees the fabric as it stood at the last barrier.
#[derive(Debug, Clone)]
pub struct FabricTables<T: Topology> {
    topo: T,
    policy: RoutePolicy,
    timing: LinkTiming,
    routes: Routes,
    live_ports: Vec<Vec<Port>>,
    live_link_of: Vec<Vec<usize>>,
    link_of: Vec<Vec<usize>>,
    /// `(from, to, class, dir)` per global link id.
    link_meta: Vec<(NodeId, NodeId, LinkClass, Option<Direction>)>,
    region: RegionMap,
    alive: Vec<bool>,
    drained: Vec<bool>,
}

impl<T: Topology> FabricTables<T> {
    /// Tables over a healthy `topo` partitioned into `shards` row bands.
    pub fn new(topo: T, timing: LinkTiming, policy: RoutePolicy, shards: usize) -> Self {
        let routes = Routes::compute(&topo, policy);
        let mut link_meta = Vec::new();
        let mut link_of = Vec::with_capacity(topo.node_count());
        let mut live_ports = Vec::with_capacity(topo.node_count());
        for n in 0..topo.node_count() {
            let node = NodeId::new(n);
            let mut ids = Vec::new();
            for p in topo.ports(node) {
                ids.push(link_meta.len());
                link_meta.push((node, p.to, p.class, p.dir));
            }
            link_of.push(ids);
            live_ports.push(topo.ports(node).to_vec());
        }
        let live_link_of = link_of.clone();
        let alive = vec![true; link_meta.len()];
        let drained = vec![false; topo.node_count()];
        let region = RegionMap::bands(&topo, shards);
        FabricTables {
            topo,
            policy,
            timing,
            routes,
            live_ports,
            live_link_of,
            link_of,
            link_meta,
            region,
            alive,
            drained,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// The routing policy the route tables were computed under.
    pub(crate) fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.region.shard_count()
    }

    /// The region owning `node` (and every link it sends on).
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region.region_of(node)
    }

    /// Total directed links in the fabric (dead ones included).
    pub fn link_count(&self) -> usize {
        self.link_meta.len()
    }

    /// `(from, to, class, dir)` of global link `id`.
    pub fn link_meta(&self, id: usize) -> (NodeId, NodeId, LinkClass, Option<Direction>) {
        self.link_meta[id]
    }

    /// Every directed link sent by `node` (dead ones included).
    pub fn links_from(&self, node: NodeId) -> &[usize] {
        &self.link_of[node.index()]
    }

    /// Whether the directed channel `id` is up.
    pub fn is_alive(&self, id: usize) -> bool {
        self.alive[id]
    }

    /// Whether `node` is drained (no new injections).
    pub fn is_drained(&self, node: NodeId) -> bool {
        self.drained[node.index()]
    }

    /// Mark `node` drained or undrained.
    pub fn set_drained(&mut self, node: NodeId, drained: bool) {
        self.drained[node.index()] = drained;
    }

    /// The conservative lookahead over the live cross-region links, if any
    /// cross a boundary.
    pub fn conservative_lookahead(&self) -> Option<SimDuration> {
        self.region.conservative_lookahead(&self.timing)
    }

    /// The global ids of both directed channels of the undirected link
    /// `a ↔ b`.
    pub fn link_ids(&self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let la = self
            .directed_link_id(a, b)
            .ok_or(FaultError::NoSuchLink { a, b })?;
        let lb = self
            .directed_link_id(b, a)
            .ok_or(FaultError::NoSuchLink { a, b })?;
        Ok([la, lb])
    }

    fn directed_link_id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from.index() >= self.topo.node_count() {
            return None;
        }
        self.topo
            .ports(from)
            .iter()
            .position(|p| p.to == to)
            .map(|pi| self.link_of[from.index()][pi])
    }

    /// Fail the undirected link `a ↔ b`: both directed channels go dead
    /// and routes are recomputed over the survivors. If the failure would
    /// partition the fabric the tables are left untouched and the error
    /// returned — worker link state has not been modified yet, so there is
    /// nothing to roll back.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let ids = self.link_ids(a, b)?;
        if !self.alive[ids[0]] {
            return Err(FaultError::AlreadyInState { a, b, alive: false });
        }
        for id in ids {
            self.alive[id] = false;
        }
        if let Err(e) = self.rebuild_routes() {
            for id in ids {
                self.alive[id] = true;
            }
            self.rebuild_routes()
                .expect("rollback restores a routable fabric");
            return Err(e);
        }
        for id in ids {
            let (from, to, class, _) = self.link_meta[id];
            self.region.directed_link_down(from, to, class);
        }
        Ok(ids)
    }

    /// Bring the dead undirected link `a ↔ b` back and recompute routes.
    /// (Restoring an *alive* but degraded link is a worker-side heal and
    /// never reaches the tables; call sites check liveness first.)
    ///
    /// # Panics
    ///
    /// Panics if restoring somehow partitions the fabric — adding a link
    /// cannot disconnect anything.
    pub fn revive_link(&mut self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let ids = self.link_ids(a, b)?;
        if self.alive[ids[0]] {
            return Err(FaultError::AlreadyInState { a, b, alive: true });
        }
        for id in ids {
            self.alive[id] = true;
            let (from, to, class, _) = self.link_meta[id];
            self.region.directed_link_up(from, to, class);
        }
        self.rebuild_routes()
            .expect("restoring a link cannot partition the fabric");
        Ok(ids)
    }

    /// Invariant monitor: recompute minimal routes from scratch over the
    /// live fabric and compare distances against the installed tables.
    /// `Err` describes the first divergence — the incremental fault path
    /// has corrupted routing state.
    pub fn audit_routes(&self) -> Result<(), String> {
        let view = LivePorts {
            inner: &self.topo,
            ports: &self.live_ports,
        };
        let fresh = Routes::compute(&view, self.policy);
        let eps = self.topo.endpoints();
        for &from in &eps {
            for &to in &eps {
                if from == to {
                    continue;
                }
                let installed = self.routes.distance(from, 0, to);
                let recomputed = fresh.distance(from, 0, to);
                if installed != recomputed {
                    return Err(format!(
                        "route table inconsistent: {from}->{to} installed distance \
                         {installed}, recomputed {recomputed}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Invariant monitor: compare the incrementally maintained conservative
    /// lookahead against the brute-force walk oracle over the live fabric.
    /// `Err` describes the divergence — fault plumbing has desynced the
    /// cross-region link accounting.
    pub fn audit_lookahead(&self) -> Result<(), String> {
        let view = LivePorts {
            inner: &self.topo,
            ports: &self.live_ports,
        };
        let walked = crate::region::lookahead_by_walk(&view, &self.region, &self.timing);
        let incremental = self.conservative_lookahead();
        if walked == incremental {
            Ok(())
        } else {
            Err(format!(
                "conservative lookahead diverged from the oracle: incremental {incremental:?}, \
                 brute-force walk {walked:?}"
            ))
        }
    }

    /// The global id of the directed link `from -> to`, with the same
    /// error shape the flit-corruption fault path expects.
    pub fn directed_link(&self, from: NodeId, to: NodeId) -> Result<usize, FaultError> {
        self.directed_link_id(from, to)
            .ok_or(FaultError::NoSuchLink { a: from, b: to })
    }

    /// Recompute the live port views and minimal-path route tables from
    /// the current liveness flags; `Err` (with the tables unchanged) if
    /// any endpoint pair would become unreachable.
    fn rebuild_routes(&mut self) -> Result<(), FaultError> {
        for n in 0..self.topo.node_count() {
            let node = NodeId::new(n);
            let lp = &mut self.live_ports[n];
            let ll = &mut self.live_link_of[n];
            lp.clear();
            ll.clear();
            for (pi, p) in self.topo.ports(node).iter().enumerate() {
                let id = self.link_of[n][pi];
                if self.alive[id] {
                    lp.push(*p);
                    ll.push(id);
                }
            }
        }
        let view = LivePorts {
            inner: &self.topo,
            ports: &self.live_ports,
        };
        let routes = Routes::compute(&view, self.policy);
        let eps = self.topo.endpoints();
        for &from in &eps {
            for &to in &eps {
                if from != to && routes.distance(from, 0, to) == Routes::UNREACHABLE {
                    return Err(FaultError::Partitioned { from, to });
                }
            }
        }
        self.routes = routes;
        Ok(())
    }
}

/// Topology-indexed and time-windowed accumulators for one region's share
/// of the fabric: where traffic lands (per-node), where it flows (per-link)
/// and when (a fixed-width [`Timeline`]).
///
/// Every node and every directed link is owned by exactly one region, so
/// per-region accumulators partition the fabric and merging is exact:
/// element-wise add (plus `max` for the backlog high-water marks) and a
/// commutative [`Timeline::merge`]. Merged in region order, the result is
/// byte-identical at any shard/thread count — same argument as the
/// registries the campaigns already merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetHeat {
    /// Messages delivered at each destination node, indexed by node id.
    pub node_delivered: Vec<u64>,
    /// Payload bytes delivered at each destination node.
    pub node_bytes: Vec<u64>,
    /// Payload bytes granted onto each directed link.
    pub link_bytes: Vec<u64>,
    /// Picoseconds each directed link was occupied by granted transfers.
    pub link_busy_ps: Vec<u64>,
    /// Deepest queue observed behind each directed link at grant time.
    pub link_peak_backlog: Vec<u64>,
    /// Windowed counters `net.delivered` / `net.bytes` / `net.link_busy_ps`,
    /// gauge `net.peak_backlog`, histogram `net.latency_ns`.
    pub timeline: Timeline,
}

impl NetHeat {
    /// Zeroed accumulators over `nodes` nodes and `links` directed links,
    /// windowed at `window_ps`.
    pub fn new(window_ps: u64, nodes: usize, links: usize) -> Self {
        NetHeat {
            node_delivered: vec![0; nodes],
            node_bytes: vec![0; nodes],
            link_bytes: vec![0; links],
            link_busy_ps: vec![0; links],
            link_peak_backlog: vec![0; links],
            timeline: Timeline::new(window_ps),
        }
    }

    /// Fold another region's accumulators into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two sides cover different topologies or window widths.
    pub fn merge(&mut self, other: &NetHeat) {
        assert_eq!(self.node_delivered.len(), other.node_delivered.len());
        assert_eq!(self.link_bytes.len(), other.link_bytes.len());
        for (a, b) in self.node_delivered.iter_mut().zip(&other.node_delivered) {
            *a += b;
        }
        for (a, b) in self.node_bytes.iter_mut().zip(&other.node_bytes) {
            *a += b;
        }
        for (a, b) in self.link_bytes.iter_mut().zip(&other.link_bytes) {
            *a += b;
        }
        for (a, b) in self.link_busy_ps.iter_mut().zip(&other.link_busy_ps) {
            *a += b;
        }
        for (a, b) in self
            .link_peak_backlog
            .iter_mut()
            .zip(&other.link_peak_backlog)
        {
            *a = (*a).max(*b);
        }
        self.timeline.merge(&other.timeline);
    }
}

/// One region's owned slice of the fabric: the mutable [`Link`] state of
/// every directed link whose sending node the region owns, the packets
/// queued on those links, and the region's share of the Chrome trace.
#[derive(Debug)]
pub struct RegionNet<T: Topology, P> {
    region: usize,
    tables: Arc<FabricTables<T>>,
    /// Indexed by global link id; `Some` for owned (region-local) links.
    links: Vec<Option<Link>>,
    /// Queued packets, addressed by the region-local [`MessageId`]s living
    /// in the link queues. Slot numbering is pure bookkeeping — behavior
    /// never depends on it.
    slab: Vec<Option<Box<Packet<P>>>>,
    free: Vec<u32>,
    tickets: Vec<Option<InFlight>>,
    delivered: u64,
    trace: Option<Box<TraceSink>>,
    heat: Option<Box<NetHeat>>,
}

impl<T: Topology, P> RegionNet<T, P> {
    /// The slice of `tables`' fabric owned by `region`.
    pub fn new(region: usize, tables: Arc<FabricTables<T>>) -> Self {
        let links = (0..tables.link_count())
            .map(|id| {
                let (from, to, class, dir) = tables.link_meta(id);
                (tables.region_of(from) == region).then(|| Link::new(from, to, class, dir))
            })
            .collect();
        let tickets = vec![None; tables.link_count()];
        RegionNet {
            region,
            tables,
            links,
            slab: Vec::new(),
            free: Vec::new(),
            tickets,
            delivered: 0,
            trace: None,
            heat: None,
        }
    }

    /// This region's id.
    pub fn region(&self) -> usize {
        self.region
    }

    /// The shared routing snapshot.
    pub fn tables(&self) -> &FabricTables<T> {
        &self.tables
    }

    /// Install a fresh routing snapshot (barrier republish).
    pub fn set_tables(&mut self, tables: Arc<FabricTables<T>>) {
        self.tables = tables;
    }

    /// Messages delivered inside this region.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// CRC retransmits across this region's links.
    pub fn crc_retransmits(&self) -> u64 {
        self.links.iter().flatten().map(Link::crc_retransmits).sum()
    }

    /// Start collecting Chrome-trace events (complete events only; the
    /// assembler adds lane metadata once, after merging regions).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// The trace sink, when tracing — for callers charging extra lanes
    /// (e.g. memory service events).
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut()
    }

    /// Detach and return the collected trace, if tracing was on.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take().map(|b| *b)
    }

    /// Start accumulating topology heat and a `window_ps`-wide timeline for
    /// this region's slice of the fabric.
    pub fn enable_heat(&mut self, window_ps: u64) {
        self.heat = Some(Box::new(NetHeat::new(
            window_ps,
            self.tables.topology().node_count(),
            self.tables.link_count(),
        )));
    }

    /// Detach and return the accumulated heat, if it was enabled.
    pub fn take_heat(&mut self) -> Option<NetHeat> {
        self.heat.take().map(|b| *b)
    }

    /// Exclusive access to an owned link (barrier-time fault mutation).
    ///
    /// # Panics
    ///
    /// Panics if the region does not own `id`.
    pub fn link_mut(&mut self, id: usize) -> &mut Link {
        self.links[id]
            .as_mut()
            .expect("link is owned by this region")
    }

    /// Shared access to an owned link.
    pub fn link(&self, id: usize) -> &Link {
        self.links[id]
            .as_ref()
            .expect("link is owned by this region")
    }

    /// The drop-condemnation ticket of the packet last granted on `id`.
    pub fn in_flight_ticket(&self, id: usize) -> Option<InFlight> {
        self.tickets[id]
    }

    /// Evict every queued packet from link `id` (highest priority first),
    /// returning the owned packets for barrier-time re-routing.
    pub fn evict_queued(&mut self, id: usize) -> Vec<Box<Packet<P>>> {
        let drained = self.link_mut(id).drain_queued();
        drained.into_iter().map(|mid| self.take_slot(mid)).collect()
    }

    fn alloc_slot(&mut self, pkt: Box<Packet<P>>) -> MessageId {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Some(pkt);
            MessageId(slot)
        } else {
            let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued packets");
            self.slab.push(Some(pkt));
            MessageId(slot)
        }
    }

    fn take_slot(&mut self, id: MessageId) -> Box<Packet<P>> {
        let pkt = self.slab[id.index()].take().expect("slot occupied");
        self.free.push(id.0);
        pkt
    }

    /// Process a packet arriving on `node` at `now`: deliver it, or route
    /// it onto the next output link (starting a transfer if the link is
    /// idle). Emits follow-ups into `steps`.
    pub fn handle_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: Box<Packet<P>>,
        steps: &mut Vec<NetStep<P>>,
    ) {
        debug_assert_eq!(self.tables.region_of(node), self.region, "foreign arrive");
        if node == pkt.dst {
            self.delivered += 1;
            if let Some(h) = self.heat.as_deref_mut() {
                h.node_delivered[node.index()] += 1;
                h.node_bytes[node.index()] += pkt.bytes;
                let at = now.as_ps();
                h.timeline.counter_add(at, "net.delivered", 1);
                h.timeline.counter_add(at, "net.bytes", pkt.bytes);
                h.timeline
                    .record(at, "net.latency_ns", pkt.latency(now).as_ps() / 1_000);
            }
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.complete(
                    pkt.class.name(),
                    "msg",
                    PID_MESSAGES,
                    pkt.src.index() as u32,
                    pkt.injected_at.as_ps(),
                    pkt.latency(now).as_ps(),
                    &[
                        ("tag", pkt.tag),
                        ("hops", u64::from(pkt.hops)),
                        ("dst", pkt.dst.index() as u64),
                    ],
                );
            }
            steps.push(NetStep::Delivered { pkt });
            return;
        }
        let link = self.choose_output(node, &pkt);
        if self.link(link).is_busy() {
            let class = pkt.class;
            let slot = self.alloc_slot(pkt);
            self.link_mut(link).enqueue(class, slot);
        } else {
            // An idle live link has empty queues, so the arrival wins
            // arbitration at once and never needs a slab slot.
            self.link_mut(link).grant_idle();
            self.start_transfer(link, now, pkt, steps);
        }
    }

    /// Process a link becoming free at `now`: lift pauses, release the
    /// channel, and grant the next queued packet if the link is still up.
    pub fn handle_link_free(&mut self, now: SimTime, link: usize, steps: &mut Vec<NetStep<P>>) {
        let l = self.links[link].as_mut().expect("freed link is owned");
        if l.pause_until() > now {
            // Still paused: push the release to the pause horizon.
            steps.push(NetStep::LinkFree {
                at: l.pause_until(),
                link,
            });
            return;
        }
        l.release();
        if !l.is_alive() {
            return;
        }
        if let Some(mid) = l.grant() {
            let pkt = self.take_slot(mid);
            self.start_transfer(link, now, pkt, steps);
        }
    }

    /// Route `pkt` out of `node`: minimal ports over the live fabric, the
    /// least-backlogged candidate for adaptive classes (ties to the lowest
    /// port index).
    fn choose_output(&self, node: NodeId, pkt: &Packet<P>) -> usize {
        let t = &*self.tables;
        let view = LivePorts {
            inner: &t.topo,
            ports: &t.live_ports,
        };
        let link_of = &t.live_link_of[node.index()];
        let mut candidates = t.routes.minimal_ports(&view, node, pkt.hops, pkt.dst);
        let chosen = if pkt.class.may_route_adaptively() {
            candidates.min_by_key(|&pi| {
                let link = self.links[link_of[pi]]
                    .as_ref()
                    .expect("candidate link is owned by the sender's region");
                (link.backlog() + usize::from(link.is_busy()), pi)
            })
        } else {
            candidates.next()
        };
        link_of[chosen.expect("a minimal port exists: routing never dead-ends")]
    }

    /// Send `pkt`, just granted on `link_id`, and emit its arrival and the
    /// link's next availability. A degraded link stretches transfer and
    /// wire time by its factor; an armed corruption costs one extra
    /// transfer plus one extra wire flight.
    fn start_transfer(
        &mut self,
        link_id: usize,
        now: SimTime,
        mut pkt: Box<Packet<P>>,
        steps: &mut Vec<NetStep<P>>,
    ) {
        let timing = self.tables.timing;
        let l = self.links[link_id].as_mut().expect("granting owned link");
        let stretch = l.degrade_factor();
        let retransmit = l.take_corruption();
        let backlog = l.backlog() as u32;
        let link_class = l.class;
        let to = l.to;
        let transfer =
            SimDuration::transfer_time(pkt.bytes, timing.bandwidth_gbps).saturating_mul(stretch);
        let penalty = SimDuration::from_ns(
            f64::from(backlog.min(timing.congestion_cap)) * timing.congestion_ns_per_queued,
        );
        let serialization = if pkt.serialized {
            SimDuration::ZERO
        } else {
            pkt.serialized = true;
            transfer
        };
        let wire = timing.wire(link_class).saturating_mul(stretch);
        let resend = if retransmit {
            transfer + wire
        } else {
            SimDuration::ZERO
        };
        let occupancy = transfer
            + penalty
            + if retransmit {
                transfer
            } else {
                SimDuration::ZERO
            };
        pkt.hops += 1;
        pkt.acc.queued_ps += now.since(pkt.enqueued_at).as_ps();
        pkt.acc.router_ps += timing.router_latency.as_ps();
        pkt.acc.wire_ps += wire.as_ps() + if retransmit { wire.as_ps() } else { 0 };
        pkt.acc.serialization_ps +=
            serialization.as_ps() + if retransmit { transfer.as_ps() } else { 0 };
        pkt.acc.congestion_ps += penalty.as_ps();
        let arrive_at = now + timing.router_latency + wire + serialization + penalty + resend;
        pkt.enqueued_at = arrive_at;
        let (bytes, tag, uid, msg_class) = (pkt.bytes, pkt.tag, pkt.uid, pkt.class);
        let l = self.links[link_id].as_mut().expect("granting owned link");
        l.account(msg_class, bytes, occupancy);
        self.tickets[link_id] = Some(InFlight {
            uid,
            tag,
            arrive_at,
            dest: to,
        });
        if let Some(h) = self.heat.as_deref_mut() {
            h.link_bytes[link_id] += bytes;
            h.link_busy_ps[link_id] += occupancy.as_ps();
            h.link_peak_backlog[link_id] = h.link_peak_backlog[link_id].max(u64::from(backlog));
            let at = now.as_ps();
            h.timeline
                .counter_add(at, "net.link_busy_ps", occupancy.as_ps());
            h.timeline
                .gauge_max(at, "net.peak_backlog", u64::from(backlog));
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.complete(
                msg_class.name(),
                "link",
                PID_LINKS,
                link_id as u32,
                now.as_ps(),
                occupancy.as_ps(),
                &[("tag", tag), ("backlog", u64::from(backlog))],
            );
        }
        steps.push(NetStep::Arrive {
            at: arrive_at,
            node: to,
            pkt,
        });
        steps.push(NetStep::LinkFree {
            at: now + occupancy,
            link: link_id,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_topology::Torus2D;

    fn tables(shards: usize) -> FabricTables<Torus2D> {
        FabricTables::new(
            Torus2D::new(4, 4),
            LinkTiming::ev7_torus(),
            RoutePolicy::Minimal,
            shards,
        )
    }

    fn packet(src: usize, dst: usize, uid: u64) -> Box<Packet<()>> {
        Box::new(Packet {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            class: MessageClass::Request,
            bytes: 64,
            tag: uid >> 16,
            uid,
            injected_at: SimTime::ZERO,
            hops: 0,
            serialized: false,
            enqueued_at: SimTime::ZERO,
            acc: HopBreakdown::default(),
            payload: (),
        })
    }

    /// A pending event of the miniature engine below: `(time, tiebreak,
    /// owning region, step)`.
    type Pending = (SimTime, u64, usize, NetStep<()>);

    /// File each emitted step with the region that owns it: arrivals with
    /// the node they land on, link releases with the link's sender.
    /// Deliveries are recorded in `done` as `(uid, delivered_ps, hops,
    /// breakdown total_ps)`.
    fn file_steps(
        t: &FabricTables<Torus2D>,
        at: SimTime,
        steps: Vec<NetStep<()>>,
        pending: &mut Vec<Pending>,
        done: &mut Vec<(u64, u64, u64, u64)>,
    ) {
        for s in steps {
            match s {
                NetStep::Delivered { pkt } => {
                    let hops = u64::from(pkt.hops);
                    done.push((pkt.uid, at.as_ps(), hops, pkt.acc.total_ps()));
                }
                NetStep::Arrive { at, node, pkt } => {
                    let tb = tb_arrive(pkt.uid);
                    pending.push((at, tb, t.region_of(node), NetStep::Arrive { at, node, pkt }));
                }
                NetStep::LinkFree { at, link } => {
                    let (from, ..) = t.link_meta(link);
                    let tb = tb_link_free(link);
                    pending.push((at, tb, t.region_of(from), NetStep::LinkFree { at, link }));
                }
            }
        }
    }

    /// Drive packets to delivery through however many regions they cross,
    /// dispatching each emitted step to the owning region in (time, kind)
    /// order — a miniature sequential epoch engine.
    fn run_to_empty(
        nets: &mut [RegionNet<Torus2D, ()>],
        mut pending: Vec<Pending>,
    ) -> Vec<(u64, u64, u64, u64)> {
        let tables = nets[0].tables.clone();
        let mut done = Vec::new();
        while !pending.is_empty() {
            pending.sort_by_key(|&(at, tb, _, _)| (at, tb));
            let (at, _, region, step) = pending.remove(0);
            let mut steps = Vec::new();
            match step {
                NetStep::Arrive { node, pkt, .. } => {
                    nets[region].handle_arrive(at, node, pkt, &mut steps);
                }
                NetStep::LinkFree { link, .. } => {
                    nets[region].handle_link_free(at, link, &mut steps);
                }
                NetStep::Delivered { .. } => unreachable!("consumed below"),
            }
            file_steps(&tables, at, steps, &mut pending, &mut done);
        }
        done.sort_unstable();
        done
    }

    fn deliveries_at(shards: usize) -> Vec<(u64, u64, u64, u64)> {
        let t = Arc::new(tables(shards));
        let mut nets: Vec<RegionNet<Torus2D, ()>> = (0..t.region_count())
            .map(|r| RegionNet::new(r, t.clone()))
            .collect();
        let mut seed = Vec::new();
        for (i, (src, dst)) in [(0usize, 15usize), (3, 12), (5, 6), (14, 1), (9, 9)]
            .into_iter()
            .enumerate()
        {
            let uid = (i as u64) << 16;
            let pkt = packet(src, dst, uid);
            let region = t.region_of(pkt.src);
            let node = pkt.src;
            seed.push((
                SimTime::ZERO,
                tb_arrive(uid),
                region,
                NetStep::Arrive {
                    at: SimTime::ZERO,
                    node,
                    pkt,
                },
            ));
        }
        run_to_empty(&mut nets, seed)
    }

    #[test]
    fn partitioned_delivery_is_shard_count_invariant() {
        let reference = deliveries_at(1);
        assert_eq!(reference.len(), 5);
        for shards in [2, 4] {
            assert_eq!(deliveries_at(shards), reference, "{shards} shards diverged");
        }
    }

    /// Same traffic as `deliveries_at`, with heat accumulation on; returns
    /// the region heats merged in region order.
    fn heat_at(shards: usize) -> NetHeat {
        let t = Arc::new(tables(shards));
        let mut nets: Vec<RegionNet<Torus2D, ()>> = (0..t.region_count())
            .map(|r| RegionNet::new(r, t.clone()))
            .collect();
        for net in &mut nets {
            net.enable_heat(10_000);
        }
        let mut seed = Vec::new();
        for (i, (src, dst)) in [(0usize, 15usize), (3, 12), (5, 6), (14, 1), (9, 9)]
            .into_iter()
            .enumerate()
        {
            let uid = (i as u64) << 16;
            let pkt = packet(src, dst, uid);
            let region = t.region_of(pkt.src);
            let node = pkt.src;
            seed.push((
                SimTime::ZERO,
                tb_arrive(uid),
                region,
                NetStep::Arrive {
                    at: SimTime::ZERO,
                    node,
                    pkt,
                },
            ));
        }
        run_to_empty(&mut nets, seed);
        let mut merged = NetHeat::new(10_000, t.topology().node_count(), t.link_count());
        for net in &mut nets {
            merged.merge(&net.take_heat().expect("heat was enabled"));
        }
        merged
    }

    #[test]
    fn heat_accumulators_are_shard_count_invariant_and_sum_exactly() {
        let reference = heat_at(1);
        // All five messages landed, and only at their destinations.
        assert_eq!(reference.node_delivered.iter().sum::<u64>(), 5);
        assert_eq!(reference.node_delivered[15], 1);
        assert_eq!(reference.node_bytes.iter().sum::<u64>(), 5 * 64);
        // The windowed counters partition the same totals (exact-sum).
        let totals = reference.timeline.totals();
        assert_eq!(totals.counter("net.delivered"), 5);
        assert_eq!(totals.counter("net.bytes"), 5 * 64);
        assert_eq!(
            totals.counter("net.link_busy_ps"),
            reference.link_busy_ps.iter().sum::<u64>()
        );
        for shards in [2, 4] {
            assert_eq!(heat_at(shards), reference, "{shards} shards diverged");
        }
    }

    #[test]
    fn hop_math_matches_networksim_zero_load() {
        // One packet, idle fabric: latency must equal the analytic
        // `unloaded_latency` (serialization once + per-hop router + wire).
        let t = Arc::new(tables(1));
        let mut nets = vec![RegionNet::<Torus2D, ()>::new(0, t.clone())];
        let pkt = packet(0, 1, 7 << 16);
        let classes: Vec<LinkClass> = vec![t.link_meta(t.links_from(NodeId::new(0))[0]).2];
        let reference = {
            let sim = crate::NetworkSim::new(Torus2D::new(4, 4), LinkTiming::ev7_torus());
            sim.unloaded_latency(&classes, 64)
        };
        let done = run_to_empty(
            &mut nets,
            vec![(
                SimTime::ZERO,
                tb_arrive(pkt.uid),
                0,
                NetStep::Arrive {
                    at: SimTime::ZERO,
                    node: NodeId::new(0),
                    pkt,
                },
            )],
        );
        assert_eq!(done.len(), 1);
        let (_, delivered_ps, hops, _) = done[0];
        assert_eq!(hops, 1);
        assert_eq!(delivered_ps, reference.as_ps());
    }

    /// The zero-load terms of a 64 B hop over the `0 -> 1` link of the 4×4
    /// test fabric, read off the link's class and [`LinkTiming`]:
    /// `(router, wire, transfer)`.
    fn hop_terms() -> (SimDuration, SimDuration, SimDuration) {
        let t = tables(1);
        let id = t.directed_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let timing = *t.timing();
        (
            timing.router_latency,
            timing.wire(t.link_meta(id).2),
            SimDuration::transfer_time(64, timing.bandwidth_gbps),
        )
    }

    /// One 64 B packet sent alone from node 0 to its neighbour 1 over a
    /// single-region fabric whose `0 -> 1` link has been prepared by
    /// `wound`. Returns `(delivered_ps, breakdown total_ps, CRC
    /// retransmits)`.
    fn one_hop(wound: impl FnOnce(&mut Link)) -> (u64, u64, u64) {
        let t = Arc::new(tables(1));
        let id = t.directed_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut nets = vec![RegionNet::<Torus2D, ()>::new(0, t)];
        wound(nets[0].link_mut(id));
        let pkt = packet(0, 1, 1 << 16);
        let arrive = NetStep::Arrive {
            at: SimTime::ZERO,
            node: NodeId::new(0),
            pkt,
        };
        let done = run_to_empty(&mut nets, vec![(SimTime::ZERO, 0, 0, arrive)]);
        assert_eq!(done.len(), 1);
        let (_, delivered_ps, hops, total_ps) = done[0];
        assert_eq!(hops, 1);
        (delivered_ps, total_ps, nets[0].crc_retransmits())
    }

    #[test]
    fn degraded_link_stretches_transfer_and_wire_and_sums_exactly() {
        use alphasim_kernel::fault::DEGRADE_FACTOR;
        let (router, wire, transfer) = hop_terms();
        let (healthy, _, _) = one_hop(|_| {});
        assert_eq!(healthy, (router + wire + transfer).as_ps());
        let (delivered, total, _) = one_hop(|l| l.set_degrade(DEGRADE_FACTOR));
        // Only the wire-paced terms stretch; the router pipeline does not.
        let expect = router + (wire + transfer).saturating_mul(DEGRADE_FACTOR);
        assert_eq!(delivered, expect.as_ps());
        assert_eq!(total, delivered, "breakdown must sum exactly to latency");
    }

    #[test]
    fn crc_retransmit_costs_one_extra_transfer_and_wire_flight() {
        let (router, wire, transfer) = hop_terms();
        let (delivered, total, retransmits) = one_hop(Link::arm_corruption);
        assert_eq!(
            delivered,
            (router + wire + transfer + transfer + wire).as_ps()
        );
        assert_eq!(total, delivered, "breakdown must sum exactly to latency");
        assert_eq!(retransmits, 1);
    }

    #[test]
    fn pausing_a_busy_router_extends_its_occupancy_until_the_pause_ends() {
        // Two packets queue on 0 -> 1 at time zero; the first is granted at
        // once. A pause struck while it occupies the channel must hold the
        // release (and so the second grant) until the pause lifts.
        let (router, wire, transfer) = hop_terms();
        let t = Arc::new(tables(1));
        let id = t.directed_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut nets = vec![RegionNet::<Torus2D, ()>::new(0, t.clone())];
        let mut steps = Vec::new();
        for uid in [1 << 16, 2 << 16] {
            let pkt = packet(0, 1, uid);
            nets[0].handle_arrive(SimTime::ZERO, NodeId::new(0), pkt, &mut steps);
        }
        assert!(nets[0].link(id).is_busy());
        assert_eq!(nets[0].link(id).backlog(), 1);
        let until = SimTime::ZERO + SimDuration::from_us(1.0);
        assert!(until > SimTime::ZERO + transfer, "pause outlasts the grant");
        assert!(
            !nets[0].link_mut(id).pause(until),
            "a busy channel needs no extra release"
        );
        // The first transfer ends at `transfer`; its release re-arms itself
        // at the pause end instead of freeing the channel.
        let mut rearm = Vec::new();
        nets[0].handle_link_free(SimTime::ZERO + transfer, id, &mut rearm);
        assert!(matches!(
            rearm.as_slice(),
            [NetStep::LinkFree { at, link }] if *at == until && *link == id
        ));
        assert!(nets[0].link(id).is_busy(), "held through the pause");
        let mut pending = Vec::new();
        let mut done = Vec::new();
        file_steps(&t, SimTime::ZERO, steps, &mut pending, &mut done);
        // The first transfer's release was handled by hand above.
        pending.retain(|p| !matches!(p.3, NetStep::LinkFree { .. }));
        file_steps(&t, SimTime::ZERO + transfer, rearm, &mut pending, &mut done);
        done.extend(run_to_empty(&mut nets, pending));
        done.sort_unstable();
        assert_eq!(done.len(), 2);
        let first = router + wire + transfer;
        assert_eq!(done[0], (1 << 16, first.as_ps(), 1, first.as_ps()));
        // The second packet is granted at the pause end onto an empty queue
        // (no congestion penalty) and still pays its own serialization.
        let second = until + router + wire + transfer;
        assert_eq!(done[1].0, 2 << 16);
        assert_eq!(done[1].1, second.as_ps());
        assert_eq!(
            done[1].3, done[1].1,
            "breakdown must sum exactly to latency"
        );
    }

    #[test]
    fn msg_slots_bounded_by_in_flight_population() {
        // Regression test for the slab's free list: send 20 waves of 50
        // packets, draining between waves. Live slot capacity must track the
        // queued high-water mark (≤ one wave), not the 1000 total sent.
        let t = Arc::new(tables(1));
        let mut nets = vec![RegionNet::<Torus2D, ()>::new(0, t)];
        let mut rng = alphasim_kernel::DetRng::seeded(7);
        let mut now = SimTime::ZERO;
        for wave in 0..20u64 {
            let mut seed = Vec::new();
            for i in 0..50u64 {
                let src = rng.index(16);
                let dst = rng.index_excluding(16, src);
                let mut pkt = packet(src, dst, (wave * 50 + i) << 16);
                (pkt.injected_at, pkt.enqueued_at) = (now, now);
                let (node, tb) = (pkt.src, tb_arrive(pkt.uid));
                seed.push((now, tb, 0, NetStep::Arrive { at: now, node, pkt }));
            }
            let done = run_to_empty(&mut nets, seed);
            now = SimTime::from_ps(done.iter().map(|d| d.1).max().expect("a wave"));
        }
        assert_eq!(nets[0].delivered(), 1000);
        assert!(!nets[0].slab.is_empty(), "waves queue behind busy links");
        assert!(
            nets[0].slab.len() <= 50,
            "slot table grew past one wave: {}",
            nets[0].slab.len()
        );
        // Everything is delivered, so every allocated slot is reusable.
        assert_eq!(nets[0].free.len(), nets[0].slab.len());
    }

    #[test]
    fn recycled_ids_deliver_with_correct_payloads() {
        // Two packets on one link: the first is granted on arrival, the
        // second waits in slot 0 until the link frees.
        let t = Arc::new(tables(1));
        let mut nets = vec![RegionNet::<Torus2D, ()>::new(0, t.clone())];
        let seed = [1 << 16, 2 << 16].map(|uid| {
            let arrive = NetStep::Arrive {
                at: SimTime::ZERO,
                node: NodeId::new(0),
                pkt: packet(0, 1, uid),
            };
            (SimTime::ZERO, tb_arrive(uid), 0, arrive)
        });
        let first = run_to_empty(&mut nets, seed.into());
        assert_eq!(first.len(), 2);
        assert_eq!((nets[0].slab.len(), nets[0].free.as_slice()), (1, &[0][..]));
        // After the slot is recycled it must hold its new packet's
        // src/dst/tag, not the previous occupant's.
        let at = SimTime::from_ps(first[1].1);
        let mut forward = packet(2, 3, 4 << 16);
        (forward.class, forward.bytes) = (MessageClass::Forward, 32);
        let mut steps = Vec::new();
        for pkt in [packet(2, 3, 3 << 16), forward] {
            nets[0].handle_arrive(at, NodeId::new(2), pkt, &mut steps);
        }
        assert_eq!(nets[0].slab.len(), 1, "slot was recycled");
        let queued = nets[0].slab[0].as_ref().expect("the second packet waits");
        assert_eq!(queued.tag, 4);
        assert_eq!((queued.src, queued.dst), (NodeId::new(2), NodeId::new(3)));
        assert_eq!((queued.class, queued.bytes), (MessageClass::Forward, 32));
        let (mut pending, mut done) = (Vec::new(), Vec::new());
        file_steps(&t, at, steps, &mut pending, &mut done);
        done.extend(run_to_empty(&mut nets, pending));
        let uids: Vec<u64> = done.iter().map(|d| d.0).collect();
        assert_eq!(uids, [3 << 16, 4 << 16]);
        assert_eq!(nets[0].free.len(), nets[0].slab.len());
    }

    #[test]
    fn failing_a_link_reroutes_and_restores() {
        let mut master = tables(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let ids = master.fail_link(a, b).expect("first failure applies");
        assert!(!master.is_alive(ids[0]));
        assert_eq!(
            master.fail_link(a, b),
            Err(FaultError::AlreadyInState { a, b, alive: false })
        );
        master.revive_link(a, b).expect("revive applies");
        assert!(master.is_alive(ids[0]));
        assert_eq!(
            master.revive_link(a, b),
            Err(FaultError::AlreadyInState { a, b, alive: true })
        );
    }

    #[test]
    fn partitioning_failure_is_rejected_and_rolled_back() {
        // Cut three of node 0's four links, then demand the fourth: that
        // would sever node 0 and must be refused with the tables intact.
        let mut master = tables(2);
        for to in [1usize, 3, 4] {
            master
                .fail_link(NodeId::new(0), NodeId::new(to))
                .expect("fabric survives");
        }
        assert!(matches!(
            master.fail_link(NodeId::new(0), NodeId::new(12)),
            Err(FaultError::Partitioned { .. })
        ));
        // The rollback leaves the last link routable: node 0 still sends.
        let ids = master.link_ids(NodeId::new(0), NodeId::new(12)).unwrap();
        assert!(master.is_alive(ids[0]) && master.is_alive(ids[1]));
    }

    #[test]
    fn ticket_records_the_granted_packet() {
        let t = Arc::new(tables(1));
        let mut net = RegionNet::<Torus2D, ()>::new(0, t.clone());
        let pkt = packet(0, 2, 42 << 16);
        let mut steps = Vec::new();
        net.handle_arrive(SimTime::ZERO, NodeId::new(0), pkt, &mut steps);
        let arrive = steps
            .iter()
            .find_map(|s| match s {
                NetStep::Arrive { at, .. } => Some(*at),
                _ => None,
            })
            .expect("hop scheduled");
        let ticket = net
            .tables()
            .links_from(NodeId::new(0))
            .iter()
            .find_map(|&id| net.in_flight_ticket(id))
            .expect("a link carries the packet");
        assert_eq!(ticket.uid, 42 << 16);
        assert_eq!(ticket.arrive_at, arrive);
    }
}

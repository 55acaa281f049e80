//! The message-level network simulator: the fault-free fabric of the
//! paper's closed-loop load tests, driven by one sequential event queue.

use std::sync::Arc;

use alphasim_kernel::{EventQueue, SimDuration, SimTime};
use alphasim_telemetry::HopBreakdown;
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Topology};

use crate::link::Link;
use crate::msg::{Delivery, MessageClass};
use crate::partition::{FabricTables, NetStep, Packet, RegionNet};
use crate::timing::LinkTiming;

/// What one [`NetworkSim::step`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// A message reached its destination.
    Delivered(Delivery),
    /// An internal event (a hop, a link becoming free) was processed.
    Internal,
}

#[derive(Debug)]
enum Event {
    Arrive { node: NodeId, pkt: Box<Packet<()>> },
    LinkFree { link: usize },
}

/// A discrete-event, message-level simulator of one healthy fabric.
///
/// This is the fabric of the paper's fault-free load tests (Figs. 15, 18,
/// 23–28): the whole fabric as a single [`RegionNet`] region, whose hop
/// model it shares with the fault campaigns, stepped by one
/// `(time, insertion order)` event queue. Live faults — link cuts,
/// degradation, CRC retransmits, router pauses, drains — are applied only
/// by the epoch engine at its barriers; a statically wounded fabric is a
/// [`Degraded`](alphasim_topology::Degraded) topology.
///
/// Fidelity choices (see DESIGN.md):
///
/// * **Routing** is minimal adaptive: at each hop a packet picks the
///   minimal-path output with the smallest backlog (the Adaptive channel);
///   I/O packets route deterministically, as in the 21364.
/// * **Virtual channels** appear as per-class FIFO queues per link with
///   strict priority arbitration, so responses never block behind requests.
///   Deadlock freedom of the escape network is *proved* separately
///   (`alphasim_topology::route::escape_network_is_acyclic`) rather than
///   re-enacted flit by flit; queues here are unbounded, with a calibrated
///   arbitration penalty per queued packet standing in for head-of-line
///   blocking — this is what bends Fig. 15's delivered bandwidth back past
///   saturation.
/// * **Wormhole pipelining**: a message pays its serialization latency once
///   (at injection) and router+wire latency per hop, while *occupying* each
///   traversed link for its full transfer time.
///
/// # Examples
///
/// ```
/// use alphasim_net::{NetworkSim, MessageClass, Step};
/// use alphasim_topology::{Torus2D, NodeId};
/// use alphasim_kernel::SimTime;
///
/// let mut net = NetworkSim::new(Torus2D::new(4, 4), alphasim_net::LinkTiming::ev7_torus());
/// net.send(SimTime::ZERO, NodeId::new(0), NodeId::new(5), MessageClass::Request, 16, 7);
/// let mut delivered = 0;
/// while let Some(step) = net.step() {
///     if let Step::Delivered(d) = step {
///         assert_eq!(d.tag, 7);
///         delivered += 1;
///     }
/// }
/// assert_eq!(delivered, 1);
/// ```
#[derive(Debug)]
pub struct NetworkSim<T: Topology> {
    net: RegionNet<T, ()>,
    /// The future-event list: `(time, insertion order)` pops, so the event
    /// order — and therefore every output byte — is deterministic.
    events: EventQueue<Event>,
    /// The follow-ups one event emits, reused across steps.
    steps: Vec<NetStep<()>>,
    /// The last delivered packet's box, reused by the next
    /// [`send`](Self::send): a closed loop sends right after each delivery.
    spare: Option<Box<Packet<()>>>,
}

impl<T: Topology> NetworkSim<T> {
    /// A simulator over `topo` with minimal adaptive routing.
    pub fn new(topo: T, timing: LinkTiming) -> Self {
        Self::with_policy(topo, timing, RoutePolicy::Minimal)
    }

    /// A simulator with an explicit shuffle-link policy (Fig. 18).
    pub fn with_policy(topo: T, timing: LinkTiming, policy: RoutePolicy) -> Self {
        let tables = FabricTables::new(topo, timing, policy, 1);
        NetworkSim {
            net: RegionNet::new(0, Arc::new(tables)),
            events: EventQueue::new(),
            steps: Vec::new(),
            spare: None,
        }
    }

    /// The simulated topology.
    pub fn topology(&self) -> &T {
        self.net.tables().topology()
    }

    /// The routing policy in force.
    pub fn policy(&self) -> RoutePolicy {
        self.net.tables().policy()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.net.delivered()
    }

    /// Inject a message at time `at` (which must not be in the past).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Self::now), or if `src`/`dst`
    /// are out of range.
    pub fn send(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        bytes: u64,
        tag: u64,
    ) {
        let nodes = self.topology().node_count();
        assert!(src.index() < nodes, "bad source");
        assert!(dst.index() < nodes, "bad destination");
        let pkt = Packet {
            src,
            dst,
            class,
            bytes,
            tag,
            // Events pop in insertion order here, so no tiebreak identity
            // is needed.
            uid: 0,
            injected_at: at,
            hops: 0,
            serialized: false,
            enqueued_at: at,
            acc: HopBreakdown::default(),
            payload: (),
        };
        let pkt = match self.spare.take() {
            Some(mut spare) => {
                *spare = pkt;
                spare
            }
            None => Box::new(pkt),
        };
        self.events.schedule(at, Event::Arrive { node: src, pkt });
    }

    /// Process one event. `None` when the network is drained.
    pub fn step(&mut self) -> Option<Step> {
        let (now, event) = self.events.pop()?;
        match event {
            Event::Arrive { node, pkt } => self.net.handle_arrive(now, node, pkt, &mut self.steps),
            Event::LinkFree { link } => self.net.handle_link_free(now, link, &mut self.steps),
        }
        let mut step = Step::Internal;
        // Scheduled in emission order, which keeps the event order of a
        // hop (arrival before release) fixed.
        for s in self.steps.drain(..) {
            match s {
                NetStep::Arrive { at, node, pkt } => {
                    self.events.schedule(at, Event::Arrive { node, pkt });
                }
                NetStep::LinkFree { at, link } => {
                    self.events.schedule(at, Event::LinkFree { link });
                }
                NetStep::Delivered { pkt } => {
                    step = Step::Delivered(Delivery {
                        src: pkt.src,
                        dst: pkt.dst,
                        class: pkt.class,
                        bytes: pkt.bytes,
                        tag: pkt.tag,
                        injected_at: pkt.injected_at,
                        delivered_at: now,
                        hops: pkt.hops,
                        breakdown: pkt.acc,
                    });
                    self.spare = Some(pkt);
                }
            }
        }
        Some(step)
    }

    /// Run until no events remain, discarding deliveries.
    pub fn drain(&mut self) {
        while self.step().is_some() {}
    }

    /// Run until no events remain, collecting deliveries.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(step) = self.step() {
            if let Step::Delivered(d) = step {
                out.push(d);
            }
        }
        out
    }

    /// The zero-load latency of a `bytes`-sized message over `hops` hops of
    /// `class`-class links (analytic; used to calibrate and to test the
    /// simulator against itself).
    pub fn unloaded_latency(
        &self,
        hops: &[alphasim_topology::LinkClass],
        bytes: u64,
    ) -> SimDuration {
        let timing = self.net.tables().timing();
        let mut total = SimDuration::transfer_time(bytes, timing.bandwidth_gbps);
        for &class in hops {
            total += timing.router_latency + timing.wire(class);
        }
        total
    }

    /// Every directed link of the fabric.
    fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        (0..self.net.tables().link_count()).map(|id| self.net.link(id))
    }

    /// Per-link statistics: `(from, to, direction, utilization, bytes)`.
    pub fn link_stats(
        &self,
    ) -> impl Iterator<
        Item = (
            NodeId,
            NodeId,
            Option<alphasim_topology::Direction>,
            f64,
            u64,
        ),
    > + '_ {
        let now = self.now();
        self.links()
            .map(move |l| (l.from, l.to, l.dir, l.utilization(now), l.bytes()))
    }

    /// Mean utilization of links whose direction satisfies `pred` (e.g.
    /// horizontal for the GUPS East/West analysis, Fig. 24).
    pub fn mean_utilization_where(
        &self,
        pred: impl Fn(Option<alphasim_topology::Direction>) -> bool,
    ) -> f64 {
        let now = self.now();
        let (sum, n) = self
            .links()
            .filter(|l| pred(l.dir))
            .fold((0.0, 0usize), |(s, n), l| (s + l.utilization(now), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Total bytes delivered onto links of the whole fabric.
    pub fn total_link_bytes(&self) -> u64 {
        self.links().map(Link::bytes).sum()
    }

    /// Total packet grants across all output arbiters (each hop of each
    /// message is one grant).
    pub fn total_grants(&self) -> u64 {
        self.links().map(Link::granted).sum()
    }

    /// Fabric bytes moved per message class — the protocol-traffic
    /// breakdown (data responses dominate coherence traffic).
    pub fn class_byte_totals(&self) -> [(MessageClass, u64); 5] {
        MessageClass::ALL.map(|c| (c, self.links().map(|l| l.class_bytes(c)).sum()))
    }

    /// Mean cumulative busy time over links whose direction satisfies
    /// `pred`, for interval sampling (e.g. East/West vs North/South).
    pub fn mean_busy_where(
        &self,
        pred: impl Fn(Option<alphasim_topology::Direction>) -> bool,
    ) -> SimDuration {
        let (sum, n) = self
            .links()
            .filter(|l| pred(l.dir))
            .fold((SimDuration::ZERO, 0u64), |(s, n), l| {
                (s + l.busy_time(), n + 1)
            });
        if n == 0 {
            SimDuration::ZERO
        } else {
            sum / n
        }
    }

    /// Outgoing-link utilizations of one node, averaged (Xmesh's per-node
    /// IP-link gauge).
    pub fn node_ip_utilization(&self, node: NodeId) -> f64 {
        let now = self.now();
        let ids = self.net.tables().links_from(node);
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter()
            .map(|&i| self.net.link(i).utilization(now))
            .sum::<f64>()
            / ids.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_kernel::DetRng;
    use alphasim_topology::{LinkClass, Torus2D};

    fn sim4x4() -> NetworkSim<Torus2D> {
        NetworkSim::new(Torus2D::new(4, 4), LinkTiming::ev7_torus())
    }

    #[test]
    fn single_message_latency_is_analytic() {
        let mut net = sim4x4();
        // 0 -> 1 is one Board hop East.
        net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            16,
            0,
        );
        let d = net.drain_deliveries();
        assert_eq!(d.len(), 1);
        let expect = net.unloaded_latency(&[LinkClass::Board], 16);
        assert_eq!(d[0].latency(), expect);
        assert_eq!(d[0].hops, 1);
    }

    #[test]
    fn self_send_is_immediate() {
        let mut net = sim4x4();
        net.send(
            SimTime::ZERO,
            NodeId::new(3),
            NodeId::new(3),
            MessageClass::Special,
            8,
            42,
        );
        let d = net.drain_deliveries();
        assert_eq!(d[0].hops, 0);
        assert_eq!(d[0].latency(), SimDuration::ZERO);
    }

    #[test]
    fn all_messages_are_delivered() {
        // Conservation under random all-to-all traffic.
        let mut net = sim4x4();
        let mut rng = DetRng::seeded(11);
        let n = 16;
        let mut sent = 0;
        for i in 0..500u64 {
            let src = rng.index(n);
            let dst = rng.index_excluding(n, src);
            let at = SimTime::from_ps(i * 1000);
            net.send(
                at,
                NodeId::new(src),
                NodeId::new(dst),
                MessageClass::Request,
                16,
                i,
            );
            sent += 1;
        }
        let d = net.drain_deliveries();
        assert_eq!(d.len(), sent);
        // Tags unique => no duplication.
        let mut tags: Vec<u64> = d.iter().map(|x| x.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), sent);
    }

    #[test]
    fn hops_match_torus_distance() {
        let mut net = sim4x4();
        let t = net.topology().clone();
        for dst in 1..16 {
            net.send(
                net.now(),
                NodeId::new(0),
                NodeId::new(dst),
                MessageClass::Request,
                16,
                dst as u64,
            );
        }
        for d in net.drain_deliveries() {
            assert_eq!(
                d.hops,
                t.hop_distance(d.src, d.dst) as u32,
                "{} -> {}",
                d.src,
                d.dst
            );
        }
    }

    #[test]
    fn responses_overtake_queued_requests() {
        let mut net = sim4x4();
        // Flood one link with requests, then send a response; the response
        // must be granted at the first arbitration after it arrives.
        for i in 0..10 {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                MessageClass::Request,
                64,
                i,
            );
        }
        net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::BlockResponse,
            64,
            999,
        );
        let d = net.drain_deliveries();
        let response_pos = d.iter().position(|x| x.tag == 999).unwrap();
        assert!(
            response_pos <= 1,
            "response delivered {response_pos} deep despite priority VCs"
        );
    }

    #[test]
    fn adaptive_routing_uses_both_minimal_paths() {
        let mut net = sim4x4();
        // 0 -> 5 has minimal first hops East (to 1) and South (to 4).
        for i in 0..20 {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(5),
                MessageClass::Request,
                64,
                i,
            );
        }
        net.drain();
        let east: u64 = net
            .link_stats()
            .filter(|&(f, t, _, _, _)| f == NodeId::new(0) && t == NodeId::new(1))
            .map(|(_, _, _, _, b)| b)
            .sum();
        let south: u64 = net
            .link_stats()
            .filter(|&(f, t, _, _, _)| f == NodeId::new(0) && t == NodeId::new(4))
            .map(|(_, _, _, _, b)| b)
            .sum();
        assert!(east > 0 && south > 0, "east={east} south={south}");
        // Near-even split under symmetric load.
        let ratio = east as f64 / south as f64;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn io_routes_deterministically() {
        let mut net = sim4x4();
        for i in 0..20 {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(5),
                MessageClass::Io,
                64,
                i,
            );
        }
        net.drain();
        let used: Vec<(NodeId, u64)> = net
            .link_stats()
            .filter(|&(f, _, _, _, b)| f == NodeId::new(0) && b > 0)
            .map(|(_, t, _, _, b)| (t, b))
            .collect();
        assert_eq!(used.len(), 1, "I/O must not spread: {used:?}");
    }

    #[test]
    fn congestion_raises_latency() {
        let light = {
            let mut net = sim4x4();
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(2),
                MessageClass::Request,
                64,
                0,
            );
            net.drain_deliveries()[0].latency()
        };
        let heavy = {
            let mut net = sim4x4();
            for i in 0..200 {
                net.send(
                    SimTime::ZERO,
                    NodeId::new(0),
                    NodeId::new(2),
                    MessageClass::Request,
                    64,
                    i,
                );
            }
            let d = net.drain_deliveries();
            d.iter().map(|x| x.latency()).max().unwrap()
        };
        assert!(
            heavy > light * 20,
            "queueing should dominate: {light} vs {heavy}"
        );
    }

    #[test]
    fn link_utilization_bounded_and_positive() {
        let mut net = sim4x4();
        for i in 0..100 {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                MessageClass::Request,
                64,
                i,
            );
        }
        net.drain();
        for (_, _, _, u, _) in net.link_stats() {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(net.node_ip_utilization(NodeId::new(0)) > 0.0);
        assert!(net.total_link_bytes() >= 100 * 64);
        assert_eq!(net.delivered_count(), 100);
    }

    #[test]
    fn horizontal_vs_vertical_utilization_filter() {
        let mut net = sim4x4();
        // Traffic only along row 0.
        for i in 0..50 {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(2),
                MessageClass::Request,
                64,
                i,
            );
        }
        net.drain();
        let horiz = net.mean_utilization_where(|d| d.is_some_and(|d| d.is_horizontal()));
        let vert = net.mean_utilization_where(|d| d.is_some_and(|d| !d.is_horizontal()));
        assert!(horiz > vert, "horiz {horiz} vert {vert}");
        assert_eq!(vert, 0.0);
    }

    #[test]
    fn breakdown_sums_exactly_to_latency_under_congestion() {
        // Heavy contended traffic: every delivery's per-stage attribution
        // must sum to its end-to-end latency in integer picoseconds — the
        // identity the fig06 decomposition rests on.
        let mut net = sim4x4();
        let mut rng = DetRng::seeded(3);
        for i in 0..300u64 {
            let src = rng.index(16);
            let dst = rng.index_excluding(16, src);
            net.send(
                SimTime::from_ps(i * 500),
                NodeId::new(src),
                NodeId::new(dst),
                MessageClass::Request,
                64,
                i,
            );
        }
        let deliveries = net.drain_deliveries();
        assert_eq!(deliveries.len(), 300);
        let mut congested = 0;
        for d in &deliveries {
            assert_eq!(
                d.breakdown.total_ps(),
                d.latency().as_ps(),
                "stages must sum exactly for tag {}",
                d.tag
            );
            if d.breakdown.queued_ps > 0 || d.breakdown.congestion_ps > 0 {
                congested += 1;
            }
        }
        assert!(
            congested > 0,
            "the flood must exercise queue/congestion stages"
        );
    }

    #[test]
    fn self_send_breakdown_is_all_zero() {
        let mut net = sim4x4();
        net.send(
            SimTime::ZERO,
            NodeId::new(3),
            NodeId::new(3),
            MessageClass::Special,
            8,
            42,
        );
        let d = net.drain_deliveries();
        assert_eq!(d[0].breakdown, Default::default());
        assert_eq!(d[0].breakdown.total_ps(), 0);
    }
}

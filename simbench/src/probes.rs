//! Layer probes: isolated replays of one public API each, shaped like the
//! workload that exercises it, with their work counts.

use alphasim::cache::{Addr, CacheHierarchy, HierarchyConfig};
use alphasim::kernel::{DetRng, EventQueue, SimDuration, SimTime};
use alphasim::mem::{OpenPageTable, Zbox};
use alphasim::net::MessageClass;
use alphasim::system::Gs1280;
use alphasim::topology::route::Routes;
use alphasim::topology::{NodeId, Topology};

use crate::stats::{median, mix};
use crate::trace::{ratio, Tracer};
use crate::Metric;

/// Times each probe is repeated; the median is reported.
const REPEATS: usize = 5;
/// Uniform-remote messages sent through the 8×8 fabric.
const NET_MSGS: usize = 20_000;
/// Injection spacing of those messages (one per 2 ns across the machine).
const NET_GAP_PS: u64 = 2_000;
/// Hold operations (pop + schedule) on the event queue.
const QUEUE_HOLDS: usize = 200_000;
/// Zbox accesses, cache loads and page touches per probe.
const MEM_OPS: usize = 500_000;

/// Median over [`REPEATS`] of `f`'s host ns divided by `work`.
fn per_op(t: &mut Tracer, name: &'static str, work: u64, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (check, ns) = t.call(name, &mut f, |_| work);
            std::hint::black_box(check);
            ratio(ns as f64, work as f64)
        })
        .collect();
    median(&samples)
}

/// Run every probe. `depth` is the event-queue depth to hold (the
/// load-test workload's measured peak).
pub fn run(seed: u64, depth: u64, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut rng = DetRng::seeded(mix(seed, 0x009B_0BE5));

    // NetworkSim: uniform-remote messages on the 64P (8×8) torus.
    let machine = Gs1280::builder().cpus(64).shards(1).build();
    let template = machine.network();
    let routes = Routes::compute(template.topology(), template.policy());
    let nodes = template.topology().node_count();
    let msgs: Vec<(usize, usize)> = (0..NET_MSGS)
        .map(|_| {
            let src = rng.index(nodes);
            (src, rng.index_excluding(nodes, src))
        })
        .collect();
    let hops: u64 = msgs
        .iter()
        .map(|&(s, d)| u64::from(routes.distance(NodeId::new(s), 0, NodeId::new(d))))
        .sum();
    let mut delivered_ok = true;
    let ns_per_msg = per_op(
        t,
        "net::NetworkSim::send+drain[probe]",
        NET_MSGS as u64,
        || {
            let mut net = machine.network();
            for (i, &(s, d)) in msgs.iter().enumerate() {
                let at = SimTime::ZERO + SimDuration::from_ps(i as u64 * NET_GAP_PS);
                net.send(
                    at,
                    NodeId::new(s),
                    NodeId::new(d),
                    MessageClass::Request,
                    64,
                    i as u64,
                );
            }
            let n = net.drain_deliveries().len() as u64;
            delivered_ok &= n == NET_MSGS as u64;
            n
        },
    );
    if !delivered_ok {
        return Err("network probe lost messages".into());
    }
    out.push(Metric::new("net.sim.ns_per_msg", ns_per_msg, "ns"));
    out.push(Metric::new(
        "net.sim.ns_per_hop",
        ns_per_msg * NET_MSGS as f64 / hops as f64,
        "ns",
    ));
    out.push(Metric::new("probe.net.hops", hops as f64, "count"));

    // EventQueue: hold model at the given depth.
    let depth = depth.max(1) as usize;
    let horizon = depth as u64 * 10_000;
    let deltas: Vec<u64> = (0..depth + QUEUE_HOLDS)
        .map(|_| rng.bits() % horizon)
        .collect();
    let queue_ops = (depth + 2 * QUEUE_HOLDS) as u64;
    let ns_per_op = per_op(
        t,
        "kernel::EventQueue::schedule+pop[probe]",
        queue_ops,
        || {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
            for (i, &d) in deltas[..depth].iter().enumerate() {
                q.schedule(SimTime::ZERO + SimDuration::from_ps(d), i as u32);
            }
            for &d in &deltas[depth..] {
                let (at, e) = q.pop().expect("the queue holds `depth` events");
                q.schedule(at + SimDuration::from_ps(d), e);
            }
            q.len() as u64
        },
    );
    out.push(Metric::new("sim.event_queue.ns_per_op", ns_per_op, "ns"));
    out.push(Metric::new(
        "probe.event_queue.depth",
        depth as f64,
        "count",
    ));

    // Zbox: 64 B reads at random lines of 64 MB, arriving every 0–10 ns.
    let accesses: Vec<(u64, u64)> = (0..MEM_OPS)
        .map(|_| (rng.bits() % 10_000, (rng.bits() % (1 << 20)) * 64))
        .collect();
    let zcfg = machine.calibration().zbox;
    let ns_per_access = per_op(t, "mem::Zbox::access[probe]", MEM_OPS as u64, || {
        let mut z = Zbox::new(zcfg);
        let mut now = SimTime::ZERO;
        for &(gap, addr) in &accesses {
            now += SimDuration::from_ps(gap);
            z.access(now, Addr::new(addr), 64);
        }
        z.accesses()
    });
    out.push(Metric::new("mem.zbox.ns_per_access", ns_per_access, "ns"));

    // CacheHierarchy::load: random lines of a 4 MB set (L2 hits and misses).
    let lines: Vec<u64> = (0..MEM_OPS)
        .map(|_| (rng.bits() % (1 << 16)) * 64)
        .collect();
    let miss = SimDuration::from_ns(83.0);
    let ns_per_load = per_op(
        t,
        "cache::CacheHierarchy::load[probe]",
        MEM_OPS as u64,
        || {
            let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
            for &a in &lines {
                h.load(Addr::new(a), miss);
            }
            h.memory_loads()
        },
    );
    out.push(Metric::new("probe.cache.ns_per_load", ns_per_load, "ns"));

    // OpenPageTable::touch: random 2 KB pages of 64 MB over 2048 banks.
    let pages: Vec<u64> = (0..MEM_OPS).map(|_| rng.bits() % (1 << 15)).collect();
    let ns_per_touch = per_op(
        t,
        "mem::OpenPageTable::touch[probe]",
        MEM_OPS as u64,
        || {
            let mut p = OpenPageTable::new(2, 2048);
            for &page in &pages {
                p.touch(page);
            }
            p.hits()
        },
    );
    out.push(Metric::new("probe.pages.ns_per_touch", ns_per_touch, "ns"));
    Ok(out)
}

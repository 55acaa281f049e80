//! Performance benchmarks of the simulator substrates themselves: event
//! throughput, cache access rate, routing table construction, network
//! events per second. These are about the *simulator's* speed — what an
//! adopter sizing a bigger study cares about.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use alphasim::cache::{Addr, CacheGeometry, CacheHierarchy, HierarchyConfig, SetAssocCache};
use alphasim::coherence::{AccessKind, Directory};
use alphasim::kernel::{DetRng, EventQueue, SimDuration, SimTime};
use alphasim::mem::{OpenPageTable, Zbox, ZboxConfig};
use alphasim::net::{LinkTiming, MessageClass, NetworkSim};
use alphasim::topology::route::{RoutePolicy, Routes};
use alphasim::topology::{NodeId, Torus2D};
use alphasim::workloads::PointerChase;

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_queue_10k_schedule_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = DetRng::seeded(1);
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_ps(rng.bits() % 1_000_000_000), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });

    // Reference point for the 4-ary EventQueue: the same workload through
    // std's binary heap, which the queue used before. Lets a single-core run
    // quantify the kernel-level speedup directly.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_queue_10k_binary_heap_reference", |b| {
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut rng = DetRng::seeded(1);
            for i in 0..10_000u64 {
                q.push(Reverse((
                    SimTime::from_ps(rng.bits() % 1_000_000_000),
                    i,
                    i,
                )));
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });

    // Steady-state churn: a ~1k-deep queue with one schedule per pop, the
    // shape the network simulator actually produces.
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("event_queue_100k_sliding_window", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1_024);
            let mut rng = DetRng::seeded(6);
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_ps(rng.bits() % 1_000), i);
            }
            let mut count = 0u64;
            for i in 0..100_000u64 {
                let (t, _) = q.pop().expect("window stays populated");
                q.schedule(SimTime::from_ps(t.as_ps() + 1 + rng.bits() % 1_000), i);
                count += 1;
            }
            black_box((count, q.len()))
        })
    });

    g.throughput(Throughput::Elements(100_000));
    g.bench_function(
        "event_queue_100k_sliding_window_binary_heap_reference",
        |b| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
                let mut rng = DetRng::seeded(6);
                for i in 0..1_000u64 {
                    q.push(Reverse((SimTime::from_ps(rng.bits() % 1_000), i, i)));
                }
                let mut count = 0u64;
                for i in 0..100_000u64 {
                    let Reverse((t, _, _)) = q.pop().expect("window stays populated");
                    q.push(Reverse((
                        SimTime::from_ps(t.as_ps() + 1 + rng.bits() % 1_000),
                        i,
                        i,
                    )));
                    count += 1;
                }
                black_box((count, q.len()))
            })
        },
    );

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("l2_cache_10k_accesses", |b| {
        b.iter(|| {
            let mut cache = SetAssocCache::new(CacheGeometry::ev7_l2());
            let mut rng = DetRng::seeded(2);
            for _ in 0..10_000 {
                cache.access(Addr::new(rng.bits() % (8 << 20)));
            }
            black_box(cache.misses())
        })
    });

    // The figs. 4-5 cache walk: a 1 MB dependent-load chase on a fresh EV7
    // hierarchy and open-page table, below and at the 64 B line size.
    for stride in [4u64, 64] {
        let chase = PointerChase::new(1 << 20, stride);
        let loads = chase.elements().min(60_000);
        g.throughput(Throughput::Elements(chase.elements() + loads));
        g.bench_function(format!("chase_1mb_stride{stride}"), |b| {
            b.iter(|| {
                let mut hierarchy = CacheHierarchy::new(HierarchyConfig::ev7());
                let mut pages = OpenPageTable::new(2, 2048);
                let (open, closed) = (SimDuration::from_ns(83.0), SimDuration::from_ns(130.0));
                let latency = chase.run(
                    &mut hierarchy,
                    |a| {
                        if pages.touch(pages.page_of(a.get())) {
                            open
                        } else {
                            closed
                        }
                    },
                    loads,
                );
                black_box((latency, pages.hits()))
            })
        });
    }

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("zbox_10k_accesses", |b| {
        b.iter(|| {
            let mut z = Zbox::new(ZboxConfig::ev7());
            let mut now = SimTime::ZERO;
            let mut rng = DetRng::seeded(3);
            for _ in 0..10_000 {
                now = z
                    .access(now, Addr::new(rng.bits() % (1 << 30)), 64)
                    .completed;
            }
            black_box(z.accesses())
        })
    });

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("directory_10k_random_ops", |b| {
        b.iter(|| {
            let mut dir = Directory::new();
            let mut rng = DetRng::seeded(4);
            for _ in 0..10_000 {
                let cpu = rng.index(64);
                let line = rng.bits() % 4096;
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                dir.access((line % 64) as usize, cpu, line, kind);
            }
            black_box(dir.stats().writes)
        })
    });

    g.bench_function("routes_8x8_minimal", |b| {
        b.iter(|| black_box(Routes::compute(&Torus2D::new(8, 8), RoutePolicy::Minimal)))
    });

    g.throughput(Throughput::Elements(1_000));
    g.bench_function("network_1k_messages_8x8", |b| {
        b.iter(|| {
            let mut net = NetworkSim::new(Torus2D::new(8, 8), LinkTiming::ev7_torus());
            let mut rng = DetRng::seeded(5);
            for i in 0..1_000u64 {
                let src = rng.index(64);
                let dst = rng.index_excluding(64, src);
                net.send(
                    SimTime::ZERO,
                    NodeId::new(src),
                    NodeId::new(dst),
                    MessageClass::Request,
                    80,
                    i,
                );
            }
            net.drain();
            black_box(net.delivered_count())
        })
    });

    // Wave traffic with drains between waves: exercises the packet free
    // lists (queue slots and packet boxes stay one wave deep instead of
    // growing 20×).
    g.throughput(Throughput::Elements(2_000));
    g.bench_function("network_20_waves_of_100_messages_8x8", |b| {
        b.iter(|| {
            let mut net = NetworkSim::new(Torus2D::new(8, 8), LinkTiming::ev7_torus());
            let mut rng = DetRng::seeded(7);
            for wave in 0..20u64 {
                for i in 0..100u64 {
                    let src = rng.index(64);
                    let dst = rng.index_excluding(64, src);
                    net.send(
                        net.now(),
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        80,
                        wave * 100 + i,
                    );
                }
                net.drain();
            }
            black_box(net.delivered_count())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);

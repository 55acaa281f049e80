//! The four workloads: closed batches of independent simulation units.
//!
//! Each unit is one figure point or one fault campaign. The unit list is a
//! pure function of the workload seed; the simulator only ever sees the
//! generated inputs (`LoadTestConfig::seed`, `FaultCampaignConfig::seed`,
//! chaos plans from `ChaosConfig::generate`). Executing a unit checks its
//! outputs and returns its host times, its op count and a digest of its
//! simulated statistics.

use std::collections::BTreeMap;

use alphasim::cache::{Addr, CacheHierarchy};
use alphasim::experiments::memory::{fig04_sizes, fig05_strides, LatencyMachine};
use alphasim::experiments::network::default_windows;
use alphasim::experiments::resilience::bisection_cuts;
use alphasim::kernel::{take_peak_event_depth, FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim::mem::OpenPageTable;
use alphasim::system::loadtest::{
    gs1280_load_test, gs320_load_test, LoadTestConfig, LoadTestResult, TrafficPattern,
};
use alphasim::system::{
    catalog_for, gs1280_fault_campaign, CampaignPattern, CampaignResult, CampaignTelemetry,
    ChaosOptions, FaultCampaignConfig, Gs1280, Gs320, ObserveOptions,
};
use alphasim::topology::route::Routes;
use alphasim::workloads::PointerChase;
use alphasim::xmesh::{detect_hot_spots, render, MeshSnapshot, NodeCounters};

use crate::stats::{mix, Digest};
use crate::trace::Tracer;

/// Requests per CPU of every load-test unit (the full-effort sweep's).
const LOAD_REQUESTS: usize = 200;
/// Measured loads per chase point (the full-effort sweep's cap).
const CHASE_MAX_LOADS: u64 = 60_000;
/// Reads per CPU of each resilience unit: half the artifact's 1000, so a
/// batch of the observed workload stays a few seconds long and a run
/// holds several batches.
const RESILIENCE_REQUESTS: usize = 500;
/// Chaos schedules drawn per campaign batch.
const CHAOS_PLANS: usize = 120;
/// Region shards and epoch threads of every campaign unit: at most the
/// two cores the benchmark is sized for.
const EPOCH_SHARDS: usize = 2;
const EPOCH_THREADS: usize = 2;
/// Timeline window of observed units (the 2 µs of `perfsight`).
const OBSERVE_WINDOW_PS: u64 = 2_000_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 4–5 dependent-load grids: cache walk and open-page table only.
    Chase,
    /// Figs. 15, 26–28 closed-loop load tests on `NetworkSim`.
    LoadTest,
    /// 64P bisection resilience sweep plus 16P chaos schedules, plain runs.
    Campaign,
    /// The campaign inputs under the instrumented, monitored and observed
    /// entry points.
    Observed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Chase,
        Workload::LoadTest,
        Workload::Campaign,
        Workload::Observed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chase => "chase",
            Workload::LoadTest => "loadtest",
            Workload::Campaign => "campaign",
            Workload::Observed => "observed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epoch threads the workload's units run on (1: the calling thread).
    pub fn epoch_threads(self) -> usize {
        match self {
            Workload::Chase | Workload::LoadTest => 1,
            Workload::Campaign | Workload::Observed => EPOCH_THREADS,
        }
    }

    /// The workload's units for `seed`.
    pub fn units(self, seed: u64) -> Vec<Unit> {
        match self {
            Workload::Chase => chase_units(),
            Workload::LoadTest => load_units(seed),
            Workload::Campaign => campaign_units(seed, |_| Mode::Plain),
            Workload::Observed => campaign_units(seed, |i| {
                [Mode::Instrumented, Mode::Monitored, Mode::Observed][i % 3]
            }),
        }
    }

    /// The few units a traced run of another workload replays to measure
    /// this workload's layers.
    pub fn slice(self, seed: u64) -> Vec<Unit> {
        let units = self.units(seed);
        match self {
            Workload::Chase => units
                .into_iter()
                .filter(|u| matches!(u, Unit::Chase { size, .. } if *size == 1 << 20))
                .collect(),
            Workload::LoadTest => units
                .into_iter()
                .filter(|u| matches!(u, Unit::Load { cpus: 16, cfg, .. } if cfg.outstanding == 4))
                .collect(),
            Workload::Campaign => units
                .into_iter()
                .filter(|u| {
                    matches!(
                        u,
                        Unit::Campaign {
                            plan: PlanInput::Chaos(_),
                            ..
                        }
                    )
                })
                .take(2)
                .collect(),
            Workload::Observed => units
                .into_iter()
                .filter(|u| {
                    matches!(
                        u,
                        Unit::Campaign {
                            plan: PlanInput::Chaos(_),
                            ..
                        }
                    )
                })
                .take(3)
                .collect(),
        }
    }
}

/// The machine a load-test unit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// GS1280 torus.
    Gs1280,
    /// GS320 QBB tree.
    Gs320,
}

/// Where a campaign unit's fault plan comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanInput {
    /// The resilience sweep's first `n` bisection cuts.
    Bisection(usize),
    /// `ChaosConfig::generate` with this plan seed.
    Chaos(u64),
}

/// Which `FaultCampaign` entry point runs a campaign unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run`: observation off.
    Plain,
    /// `run_instrumented` without a trace.
    Instrumented,
    /// `run_monitored`: the invariant monitors.
    Monitored,
    /// `run_observed` with 2 µs windows, heatmaps and the epoch profiler.
    Observed,
    /// `run_observed` with wall-clock epoch profiling (traced runs only).
    Profiled,
}

/// One independent simulation.
#[derive(Debug, Clone)]
pub enum Unit {
    /// One pointer-chase point on a latency machine.
    Chase {
        /// Machine (cache hierarchy and memory timing).
        machine: LatencyMachine,
        /// Dataset bytes.
        size: u64,
        /// Stride bytes.
        stride: u64,
    },
    /// One closed-loop load test.
    Load {
        /// Machine family.
        machine: Machine,
        /// CPU count.
        cpus: usize,
        /// Load-test parameters, seed included.
        cfg: LoadTestConfig,
        /// Render the Xmesh panel and detect hot spots afterwards.
        xmesh: bool,
    },
    /// One GS1280 fault campaign.
    Campaign {
        /// CPU count.
        cpus: usize,
        /// Fault-plan source.
        plan: PlanInput,
        /// Campaign parameters (seed included; the plan is filled in at
        /// set-up).
        cfg: FaultCampaignConfig,
        /// Entry point.
        mode: Mode,
    },
}

impl Unit {
    /// The same campaign input under another entry point (identity for
    /// other units).
    pub fn with_mode(&self, mode: Mode) -> Unit {
        match self {
            Unit::Campaign {
                cpus, plan, cfg, ..
            } => Unit::Campaign {
                cpus: *cpus,
                plan: *plan,
                cfg: cfg.clone(),
                mode,
            },
            other => other.clone(),
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Unit::Chase { .. } => "simbench::unit[chase]",
            Unit::Load { .. } => "simbench::unit[loadtest]",
            Unit::Campaign { .. } => "simbench::unit[campaign]",
        }
    }
}

fn chase_units() -> Vec<Unit> {
    let sizes = fig04_sizes();
    let mut units = Vec::new();
    for machine in [
        LatencyMachine::gs1280(),
        LatencyMachine::es45(),
        LatencyMachine::gs320(),
    ] {
        for &size in &sizes {
            units.push(Unit::Chase {
                machine,
                size,
                stride: 64,
            });
        }
    }
    for stride in fig05_strides() {
        for &size in sizes.iter().filter(|&&s| s >= stride) {
            units.push(Unit::Chase {
                machine: LatencyMachine::gs1280(),
                size,
                stride,
            });
        }
    }
    units
}

fn load_units(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut push = |machine, cpus, outstanding, pattern, sampled: bool| {
        let salt = units.len() as u64;
        units.push(Unit::Load {
            machine,
            cpus,
            cfg: LoadTestConfig {
                outstanding,
                requests_per_cpu: LOAD_REQUESTS,
                pattern,
                seed: mix(seed, salt),
                sample_interval_ns: sampled.then_some(1_000.0),
            },
            xmesh: sampled,
        });
    };
    // Fig. 15: the outstanding-window sweep on both fabrics.
    for (machine, cpus) in [
        (Machine::Gs1280, 16),
        (Machine::Gs1280, 32),
        (Machine::Gs1280, 64),
        (Machine::Gs320, 16),
        (Machine::Gs320, 32),
    ] {
        for w in default_windows() {
            push(machine, cpus, w, TrafficPattern::UniformRemote, false);
        }
    }
    // Figs. 26–27: hot spot on CPU 0, plain and striped over its module
    // partner, with Xmesh sampling.
    for pattern in [
        TrafficPattern::HotSpot(0),
        TrafficPattern::StripedHotSpot(0, 4),
    ] {
        for w in default_windows() {
            push(Machine::Gs1280, 16, w, pattern, true);
        }
    }
    // Fig. 28's event-driven rows: IP bandwidth and GUPS at 32P.
    for (machine, w) in [
        (Machine::Gs1280, 16),
        (Machine::Gs320, 16),
        (Machine::Gs1280, 12),
        (Machine::Gs320, 8),
    ] {
        push(machine, 32, w, TrafficPattern::UniformRemote, false);
    }
    units
}

fn campaign_units(seed: u64, mode_of: impl Fn(usize) -> Mode) -> Vec<Unit> {
    // The chaos experiment's options; their retry policy is the resilience
    // sweep's loss-tolerant one.
    let chaos = ChaosOptions::default();
    // The resilience sweep: 64P, 0..=6 bisection links cut mid-run.
    let bisection = (0..=6).map(|cuts| {
        let cfg = FaultCampaignConfig {
            outstanding: 8,
            requests_per_cpu: RESILIENCE_REQUESTS,
            pattern: CampaignPattern::Bisection,
            retry: chaos.retry,
            ..Default::default()
        };
        (64, PlanInput::Bisection(cuts), cfg)
    });
    // Seeded chaos schedules on 16P.
    let plans = (0..CHAOS_PLANS as u64).map(|i| {
        let cfg = FaultCampaignConfig {
            outstanding: chaos.outstanding,
            requests_per_cpu: chaos.requests_per_cpu,
            pattern: CampaignPattern::UniformRemote,
            retry: chaos.retry,
            ..Default::default()
        };
        (
            chaos.cpus,
            PlanInput::Chaos(mix(seed ^ 0xC4A0_5EED, i)),
            cfg,
        )
    });
    bisection
        .chain(plans)
        .enumerate()
        .map(|(i, (cpus, plan, cfg))| Unit::Campaign {
            cpus,
            plan,
            cfg: FaultCampaignConfig {
                seed: mix(seed, i as u64),
                watchdog_window: SimDuration::from_us(250.0),
                shards: EPOCH_SHARDS,
                threads: EPOCH_THREADS,
                ..cfg
            },
            mode: mode_of(i),
        })
        .collect()
}

/// Exact simulated counts and host-time sums one unit contributes to the
/// per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Summed across units.
    pub sums: BTreeMap<&'static str, f64>,
    /// Maximum across units.
    pub maxes: BTreeMap<&'static str, f64>,
}

impl Counts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.maxes.entry(name).or_default();
        *e = e.max(v);
    }

    /// Fold another unit's counts in.
    pub fn merge(&mut self, other: &Counts) {
        for (&k, &v) in &other.sums {
            self.add(k, v);
        }
        for (&k, &v) in &other.maxes {
            self.max(k, v);
        }
    }

    /// A summed count (0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// A maximum (0 when absent).
    pub fn peak(&self, name: &str) -> f64 {
        self.maxes.get(name).copied().unwrap_or(0.0)
    }
}

/// What one successful unit produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated loads (chase) or completed reads (the others).
    pub ops: u64,
    /// Host ns in construction calls.
    pub setup_ns: u64,
    /// Host ns in the run (and, for load tests, the Xmesh panel).
    pub run_ns: u64,
    /// Digest of the unit's simulated statistics.
    pub digest: Digest,
    /// Per-layer counts.
    pub counts: Counts,
}

/// Run one unit, checking its outputs. `Err` names the broken rule.
pub fn run_unit(unit: &Unit, t: &mut Tracer) -> Result<Outcome, String> {
    t.open(unit.span_name());
    let out = match unit {
        Unit::Chase {
            machine,
            size,
            stride,
        } => run_chase(machine, *size, *stride, t),
        Unit::Load {
            machine,
            cpus,
            cfg,
            xmesh,
        } => run_load(*machine, *cpus, cfg, *xmesh, t),
        Unit::Campaign {
            cpus,
            plan,
            cfg,
            mode,
        } => run_campaign(*cpus, *plan, cfg, *mode, t),
    };
    t.close();
    out
}

fn run_chase(
    m: &LatencyMachine,
    size: u64,
    stride: u64,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let chase = PointerChase::new(size, stride);
    let loads = chase.elements().clamp(1, CHASE_MAX_LOADS);
    let ops = chase.elements() + loads;
    let (mut hierarchy, new_ns) = t.call(
        "cache::CacheHierarchy::new",
        || CacheHierarchy::new(m.hierarchy),
        |_| 1,
    );
    let (mut pages, pages_ns) = t.call(
        "mem::OpenPageTable::new",
        || OpenPageTable::new(m.page_kib, m.open_pages),
        |_| 1,
    );
    let (open, closed) = (
        SimDuration::from_ns(m.open_ns),
        SimDuration::from_ns(m.closed_ns),
    );
    let mut calls = 0u64;
    let (name, replay_name) = if stride < 64 {
        (
            "workloads::PointerChase::run[subline]",
            "mem::OpenPageTable::touch[replay.subline]",
        )
    } else {
        (
            "workloads::PointerChase::run[line]",
            "mem::OpenPageTable::touch[replay.line]",
        )
    };
    let (latency, run_ns) = t.call(
        name,
        || {
            chase.run(
                &mut hierarchy,
                |addr: Addr| {
                    calls += 1;
                    if pages.touch(pages.page_of(addr.get())) {
                        open
                    } else {
                        closed
                    }
                },
                loads,
            )
        },
        |_| ops,
    );
    if calls != ops {
        return Err(format!(
            "chase {size}B/{stride}B ran {calls} loads, asked for {ops}"
        ));
    }
    let lat = latency.as_ns();
    if !(m.hierarchy.l1_latency.as_ns()..=m.closed_ns).contains(&lat) {
        return Err(format!(
            "chase {size}B/{stride}B latency {lat} ns out of range"
        ));
    }
    if t.enabled() {
        // The open-page layer's own cost: replay the same address stream
        // through a fresh table (address generation included).
        let (replay, _) = t.call(
            replay_name,
            || {
                let mut p = OpenPageTable::new(m.page_kib, m.open_pages);
                for i in (0..chase.elements()).chain(0..loads) {
                    p.touch(p.page_of(chase.address(i).get()));
                }
                p
            },
            |_| ops,
        );
        if (replay.hits(), replay.misses()) != (pages.hits(), pages.misses()) {
            return Err("open-page replay diverged from the chase".into());
        }
    }
    let mut counts = Counts::default();
    counts.add("cache.units", 1.0);
    counts.add("cache.loads", ops as f64);
    counts.add("cache.memory_loads", hierarchy.memory_loads() as f64);
    counts.add("cache.writebacks", hierarchy.writebacks() as f64);
    counts.add("cache.l2_miss_ratio_sum", hierarchy.l2_miss_ratio());
    counts.add("mem.pages.hits", pages.hits() as f64);
    counts.add("mem.pages.misses", pages.misses() as f64);
    Ok(Outcome {
        ops,
        setup_ns: new_ns + pages_ns,
        run_ns,
        digest: Digest::default()
            .float(lat)
            .word(hierarchy.memory_loads())
            .word(pages.hits())
            .word(pages.misses()),
        counts,
    })
}

fn load_digest(r: &LoadTestResult) -> Digest {
    let mut d = Digest::default()
        .word(r.completed)
        .word(r.elapsed.as_ps())
        .word(r.mean_latency.as_ps())
        .float(r.delivered_gbps)
        .float(r.horizontal_util)
        .float(r.vertical_util)
        .word(r.samples.len() as u64);
    for n in &r.nodes {
        d = d.float(n.zbox_utilization).float(n.ip_utilization);
    }
    d
}

fn run_load(
    machine: Machine,
    cpus: usize,
    cfg: &LoadTestConfig,
    xmesh: bool,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    take_peak_event_depth();
    let (result, setup_ns, run_ns, endpoints) = match machine {
        Machine::Gs1280 => {
            let (m, build_ns) = t.call(
                "system::Gs1280Builder::build",
                || Gs1280::builder().cpus(cpus).build(),
                |_| 1,
            );
            if t.enabled() {
                let (net, _) = t.call("net::NetworkSim::new", || m.network(), |_| 1);
                t.call(
                    "topology::Routes::compute",
                    || Routes::compute(net.topology(), net.policy()),
                    |_| 1,
                );
            }
            let (lt, lt_ns) = t.call("system::gs1280_load_test", || gs1280_load_test(&m), |_| 1);
            let (r, run_ns) = t.call(
                "system::LoadTest::run[gs1280]",
                || lt.run(cfg),
                |r| r.completed,
            );
            (r, build_ns + lt_ns, run_ns, m.cpus())
        }
        Machine::Gs320 => {
            let (m, build_ns) = t.call("system::Gs320::new", || Gs320::new(cpus), |_| 1);
            if t.enabled() {
                let (net, _) = t.call("net::NetworkSim::new", || m.network(), |_| 1);
                t.call(
                    "topology::Routes::compute",
                    || Routes::compute(net.topology(), net.policy()),
                    |_| 1,
                );
            }
            let (lt, lt_ns) = t.call("system::gs320_load_test", || gs320_load_test(&m), |_| 1);
            let (r, run_ns) = t.call(
                "system::LoadTest::run[gs320]",
                || lt.run(cfg),
                |r| r.completed,
            );
            (r, build_ns + lt_ns, run_ns, m.cpus())
        }
    };
    let want = (endpoints * cfg.requests_per_cpu) as u64;
    if result.completed != want {
        return Err(format!(
            "load test completed {} reads, expected {want}",
            result.completed
        ));
    }
    let mut digest = load_digest(&result);
    let mut xmesh_ns = 0;
    if xmesh {
        let side = (endpoints as f64).sqrt() as usize;
        let mut snap = MeshSnapshot::new(side, endpoints / side);
        for n in &result.nodes {
            snap.set(
                n.node,
                NodeCounters {
                    zbox_util: n.zbox_utilization,
                    ip_util: n.ip_utilization,
                    io_util: 0.0,
                },
            );
        }
        let (panel, render_ns) = t.call("xmesh::render", || render(&snap), |_| 1);
        let (report, detect_ns) =
            t.call("xmesh::detect_hot_spots", || detect_hot_spots(&snap), |_| 1);
        xmesh_ns = render_ns + detect_ns;
        digest = digest.word(panel.len() as u64);
        for &h in &report.hot_nodes {
            digest = digest.word(h as u64);
        }
    }
    let mut counts = Counts::default();
    counts.add("system.loadtest.sim_ns", result.elapsed.as_ns());
    counts.add("system.loadtest.samples", result.samples.len() as f64);
    counts.max("sim.event_queue.peak_depth", take_peak_event_depth() as f64);
    Ok(Outcome {
        ops: result.completed,
        setup_ns,
        run_ns: run_ns + xmesh_ns,
        digest,
        counts,
    })
}

fn campaign_digest(r: &CampaignResult) -> Digest {
    Digest::default()
        .word(r.completed)
        .word(r.retries)
        .word(r.dropped)
        .word(r.rerouted)
        .word(r.poisoned.len() as u64)
        .word(r.watchdog_reports.len() as u64)
        .word(r.faults_applied.len() as u64)
        .word(r.crc_retransmits)
        .word(r.mean_latency.as_ps())
        .word(r.p50_latency.as_ps())
        .word(r.p99_latency.as_ps())
        .word(r.elapsed.as_ps())
        .float(r.delivered_gbps)
        .float(r.steady_gbps)
}

/// The fault plan of a campaign unit.
fn build_plan(cpus: usize, plan: PlanInput, t: &mut Tracer) -> (FaultPlan, u64) {
    match plan {
        PlanInput::Bisection(n) => t.call(
            "core::resilience::bisection_cuts",
            || {
                let mut p = FaultPlan::new();
                for (i, (a, b)) in bisection_cuts(cpus, n).into_iter().enumerate() {
                    let at = SimTime::ZERO
                        + SimDuration::from_us(2.0)
                        + SimDuration::from_us(1.0) * i as u64;
                    p.push(at, FaultKind::LinkDown { a, b });
                }
                p
            },
            |_| n as u64,
        ),
        PlanInput::Chaos(plan_seed) => {
            let (catalog, cat_ns) =
                t.call("system::chaos::catalog_for", || catalog_for(cpus), |_| 1);
            let config = ChaosOptions::default().config;
            let (p, gen_ns) = t.call(
                "kernel::ChaosConfig::generate",
                || config.generate(plan_seed, &catalog),
                |_| 1,
            );
            (p, cat_ns + gen_ns)
        }
    }
}

/// Telemetry identities every collecting entry point must keep.
fn check_telemetry(r: &CampaignResult, tel: &CampaignTelemetry) -> Result<(), String> {
    let completed = tel.registry.counter("coherence.completed");
    if completed != r.completed {
        return Err(format!(
            "registry counts {completed} completions, result {}",
            r.completed
        ));
    }
    Ok(())
}

fn run_campaign(
    cpus: usize,
    plan: PlanInput,
    cfg: &FaultCampaignConfig,
    mode: Mode,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let (plan, plan_ns) = build_plan(cpus, plan, t);
    // A drained CPU stops issuing, so only an undrained machine must issue
    // its whole quota.
    let drains = plan
        .events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::NodeDrain { .. }));
    let cfg = FaultCampaignConfig {
        plan,
        ..cfg.clone()
    };
    let (m, build_ns) = t.call(
        "system::Gs1280Builder::build",
        || Gs1280::builder().cpus(cpus).build(),
        |_| 1,
    );
    let (campaign, fc_ns) = t.call(
        "system::gs1280_fault_campaign",
        || gs1280_fault_campaign(&m),
        |_| 1,
    );
    let reads = |r: &CampaignResult| r.completed;
    let mut counts = Counts::default();
    let mut digest_extra = Digest::default();
    let (result, run_ns) = match mode {
        Mode::Plain => t.call("system::FaultCampaign::run", || campaign.run(&cfg), reads),
        Mode::Instrumented => {
            let ((r, tel), ns) = t.call(
                "system::FaultCampaign::run_instrumented",
                || campaign.run_instrumented(&cfg, false),
                |(r, _)| r.completed,
            );
            check_telemetry(&r, &tel)?;
            (r, ns)
        }
        Mode::Monitored => {
            let ((r, tel, report), ns) = t.call(
                "system::FaultCampaign::run_monitored",
                || campaign.run_monitored(&cfg),
                |(r, _, _)| r.completed,
            );
            check_telemetry(&r, &tel)?;
            if !report.is_clean() {
                let names: Vec<_> = report
                    .violations
                    .iter()
                    .map(|v| v.monitor.as_str())
                    .collect();
                return Err(format!("monitors fired: {names:?}"));
            }
            (r, ns)
        }
        Mode::Observed | Mode::Profiled => {
            let opts = ObserveOptions {
                wall: mode == Mode::Profiled,
                ..ObserveOptions::windowed(OBSERVE_WINDOW_PS)
            };
            let name = if mode == Mode::Profiled {
                "system::FaultCampaign::run_observed[wall]"
            } else {
                "system::FaultCampaign::run_observed"
            };
            let ((r, tel, obs), ns) = t.call(
                name,
                || campaign.run_observed(&cfg, opts),
                |(r, _, _)| r.completed,
            );
            check_telemetry(&r, &tel)?;
            let totals = obs.timeline.totals();
            let pairs = [
                (
                    "campaign.completed",
                    tel.registry.counter("coherence.completed"),
                ),
                (
                    "campaign.retries",
                    tel.registry.counter("coherence.retries"),
                ),
                ("campaign.poisoned", r.poisoned.len() as u64),
                ("campaign.zbox_reads", tel.registry.counter("zbox.accesses")),
            ];
            for (name, total) in pairs {
                if totals.counter(name) != total {
                    return Err(format!(
                        "timeline {name} sums to {}, registry total {total}",
                        totals.counter(name)
                    ));
                }
            }
            counts.add(
                "telemetry.timeline.windows",
                obs.timeline.window_count() as f64,
            );
            counts.add("telemetry.latency_samples", obs.latencies.len() as f64);
            digest_extra = digest_extra
                .word(obs.timeline.window_count() as u64)
                .word(obs.latencies.len() as u64);
            let p = &obs.profile;
            let busy = p.busy_per_shard();
            counts.add("sim.epoch.epochs", p.epochs() as f64);
            counts.add("sim.epoch.events", busy.iter().sum::<u64>() as f64);
            counts.add(
                "sim.epoch.merged",
                p.merged_per_shard().iter().sum::<u64>() as f64,
            );
            // Events on the busiest shard, scaled by the shard count: summed
            // over units and divided by all events, it is the event-weighted
            // max/mean imbalance.
            let critical = busy.iter().copied().max().unwrap_or(0) * busy.len() as u64;
            counts.add("sim.epoch.critical_events_x_shards", critical as f64);
            let critical_ns: u64 = p
                .samples
                .iter()
                .filter_map(|s| s.wall_ns.as_ref())
                .map(|w| w.iter().copied().max().unwrap_or(0))
                .sum();
            counts.add("sim.epoch.critical_wall_ns", critical_ns as f64);
            (r, ns)
        }
    };
    let quota = (cpus * cfg.requests_per_cpu) as u64;
    let settled = result.completed + result.poisoned.len() as u64;
    if settled > quota || (!drains && settled != quota) {
        return Err(format!(
            "{} completed + {} poisoned against a quota of {quota} reads",
            result.completed,
            result.poisoned.len()
        ));
    }
    if !result.watchdog_reports.is_empty() {
        return Err(format!(
            "{} watchdog livelock reports",
            result.watchdog_reports.len()
        ));
    }
    counts.add("net.region.dropped", result.dropped as f64);
    counts.add("net.region.rerouted", result.rerouted as f64);
    counts.add("net.region.crc_retransmits", result.crc_retransmits as f64);
    counts.add("coherence.completed", result.completed as f64);
    counts.add("coherence.retries", result.retries as f64);
    counts.add("coherence.poisoned", result.poisoned.len() as f64);
    Ok(Outcome {
        ops: result.completed,
        setup_ns: plan_ns + build_ns + fc_ns,
        run_ns,
        digest: campaign_digest(&result).word(digest_extra.0),
        counts,
    })
}

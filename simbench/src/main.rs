//! `simbench`: the GS1280 simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <chase|loadtest|campaign|observed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's batch of units back to back for
//! `--seconds`, checks every unit's outputs, and prints the end-to-end
//! metrics (host time unless stated). With `--trace 1` it alternates traced
//! and untraced batches, replays a few units of every other workload
//! traced, runs the layer probes, and prints the per-layer metrics plus the
//! tracing overhead. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for why
//! each workload exists and which end-to-end metric each layer metric
//! should move.

#![deny(unsafe_code)]

mod affinity;
mod bench;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use alphasim::experiments::summary::fig28;
use alphasim::kernel::par;

use crate::affinity::Cores;
use crate::bench::{repeat, run_rep, summarise, Rep, Summary};
use crate::stats::{valid_metric_name, Digest};
use crate::trace::{ratio, Totals, Tracer};
use crate::workloads::{run_unit, Counts, Mode, Unit, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]` name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ns`, `count` …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).clamp(1, 60),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Mean |ln(computed / paper)| over Fig. 28's rows that carry a paper
/// value, and the row count.
fn paper_log_err() -> (f64, usize) {
    let errs: Vec<f64> = fig28(200)
        .rows
        .iter()
        .filter_map(|r| r.paper.map(|p| (r.computed / p).ln().abs()))
        .collect();
    (errs.iter().sum::<f64>() / errs.len() as f64, errs.len())
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cores single-threaded workloads rotate their batches over.
fn rotation(w: Workload) -> Option<Cores> {
    if w.epoch_threads() > 1 {
        None
    } else {
        Cores::allowed()
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args) -> Result<(Vec<Metric>, Summary), String> {
    let units = args.workload.units(args.seed);
    let cores = rotation(args.workload);
    let mut batch = 0;
    let reps = repeat(Duration::from_secs(args.seconds), || {
        if let Some(c) = &cores {
            c.pin(batch);
        }
        batch += 1;
        run_rep(&units, &mut Tracer::new(false), run_unit)
    });
    if let Some(c) = &cores {
        c.restore();
    }
    let rss = peak_rss_mb()?;
    let s = summarise(&reps);
    let walls: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", (r.setup_ns + r.run_ns) as f64 / 1e9))
        .collect();
    let (err, rows) = paper_log_err();
    println!(
        "workload {} seed {}: {} batches of {} units; jobs 1, {} epoch threads, {} cores{}",
        args.workload.name(),
        args.seed,
        s.reps,
        s.units,
        args.workload.epoch_threads(),
        available_cores(),
        if cores.is_some() {
            ", batches rotate over the cores"
        } else {
            ""
        }
    );
    println!(
        "  batch wall_s: {} (median {})",
        walls.join(" "),
        s.wall_s_median
    );
    let metrics = vec![
        Metric::new("setup_s", s.setup_s, "s"),
        Metric::new("wall_s", s.wall_s, "s"),
        Metric::new("ops_per_s", s.ops_per_s, "1/s"),
        Metric::new("unit_ns_per_op_p50", s.unit_ns_per_op_p50, "ns"),
        Metric::new("unit_ns_per_op_tail", s.unit_ns_per_op_tail, "ns"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("paper_log_err", err, "ln"),
    ];
    for m in &metrics {
        let note = match m.name {
            "unit_ns_per_op_tail" => {
                format!(" (p{} of {} timed units)", s.tail_percentile, s.timed_units)
            }
            "unit_ns_per_op_p50" => format!(" (of {} timed units)", s.timed_units),
            "paper_log_err" => format!(" (over {rows} fig28 rows with a paper value)"),
            _ => String::new(),
        };
        println!("  {:<22} {} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<22} {} ({} failed / {} attempted)",
        "error_rate",
        ratio(s.failed as f64, s.attempted as f64),
        s.failed,
        s.attempted
    );
    Ok((metrics, s))
}

/// What a traced pass over some units left behind.
struct Source {
    totals: BTreeMap<&'static str, Totals>,
    counts: Counts,
    digest: Digest,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Source {
    fn new(tracer: &Tracer, reps: &[Rep]) -> Self {
        let s = summarise(reps);
        Source {
            totals: tracer.totals(),
            counts: reps.first().map(|r| r.counts.clone()).unwrap_or_default(),
            digest: s.digest,
            attempted: s.attempted,
            failed: s.failed,
            failures: s.failures,
        }
    }

    /// One traced batch over `units`.
    fn pass(units: &[Unit]) -> Self {
        let mut t = Tracer::new(true);
        let rep = run_rep(units, &mut t, run_unit);
        Source::new(&t, &[rep])
    }

    fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn sum(&self, names: &[&str]) -> Totals {
        names
            .iter()
            .map(|n| self.get(n))
            .fold(Totals::default(), |a, b| a + b)
    }
}

fn with_mode(units: &[Unit], mode: Mode) -> Vec<Unit> {
    units.iter().map(|u| u.with_mode(mode)).collect()
}

fn chase_layers(src: &Source, out: &mut Vec<Metric>) {
    let sub = src.get("workloads::PointerChase::run[subline]");
    let line = src.get("workloads::PointerChase::run[line]");
    let rsub = src.get("mem::OpenPageTable::touch[replay.subline]");
    let rline = src.get("mem::OpenPageTable::touch[replay.line]");
    let walk = |run: Totals, replay: Totals| {
        ratio(run.self_ns as f64 - replay.self_ns as f64, run.work as f64)
    };
    let c = &src.counts;
    out.extend([
        Metric::new("cache.ns_per_load", walk(sub + line, rsub + rline), "ns"),
        Metric::new("cache.ns_per_load.subline", walk(sub, rsub), "ns"),
        Metric::new("cache.ns_per_load.line", walk(line, rline), "ns"),
        Metric::new(
            "cache.new_ns",
            src.get("cache::CacheHierarchy::new").ns_per_call(),
            "ns",
        ),
        Metric::new("cache.loads", c.sum("cache.loads"), "count"),
        Metric::new("cache.memory_loads", c.sum("cache.memory_loads"), "count"),
        Metric::new(
            "cache.l2_miss_ratio",
            ratio(c.sum("cache.l2_miss_ratio_sum"), c.sum("cache.units")),
            "ratio",
        ),
        Metric::new("cache.writebacks", c.sum("cache.writebacks"), "count"),
        Metric::new("mem.pages.ns_per_touch", (rsub + rline).ns_per_work(), "ns"),
        Metric::new("mem.pages.hits", c.sum("mem.pages.hits"), "count"),
        Metric::new("mem.pages.misses", c.sum("mem.pages.misses"), "count"),
    ]);
}

fn load_layers(src: &Source, out: &mut Vec<Metric>) {
    let builds = src.sum(&["system::Gs1280Builder::build", "system::Gs320::new"]);
    let xmesh = src.sum(&["xmesh::render", "xmesh::detect_hot_spots"]);
    let c = &src.counts;
    out.extend([
        Metric::new(
            "net.sim.build_ns",
            src.get("net::NetworkSim::new").ns_per_call(),
            "ns",
        ),
        Metric::new("system.build_ns", builds.ns_per_call(), "ns"),
        Metric::new(
            "topology.routes_ns",
            src.get("topology::Routes::compute").ns_per_call(),
            "ns",
        ),
        Metric::new(
            "system.loadtest.ns_per_read.gs1280",
            src.get("system::LoadTest::run[gs1280]").ns_per_work(),
            "ns",
        ),
        Metric::new(
            "system.loadtest.ns_per_read.gs320",
            src.get("system::LoadTest::run[gs320]").ns_per_work(),
            "ns",
        ),
        Metric::new(
            "system.loadtest.sim_ns",
            c.sum("system.loadtest.sim_ns"),
            "ns",
        ),
        Metric::new(
            "system.loadtest.samples",
            c.sum("system.loadtest.samples"),
            "count",
        ),
        Metric::new(
            "sim.event_queue.peak_depth",
            c.peak("sim.event_queue.peak_depth"),
            "count",
        ),
        Metric::new(
            "xmesh.render_ns",
            ratio(xmesh.self_ns as f64, src.get("xmesh::render").calls as f64),
            "ns",
        ),
    ]);
}

fn campaign_layers(src: &Source, epochs: &Source, out: &mut Vec<Metric>) {
    let c = &src.counts;
    let e = &epochs.counts;
    let plain = src.get("system::FaultCampaign::run");
    let events = e.sum("sim.epoch.events");
    let busy = ratio(
        e.sum("sim.epoch.critical_wall_ns"),
        epochs
            .get("system::FaultCampaign::run_observed[wall]")
            .self_ns as f64,
    );
    let (completed, retries) = (c.sum("coherence.completed"), c.sum("coherence.retries"));
    out.extend([
        Metric::new("system.campaign.ns_per_read", plain.ns_per_work(), "ns"),
        Metric::new("net.region.dropped", c.sum("net.region.dropped"), "count"),
        Metric::new("net.region.rerouted", c.sum("net.region.rerouted"), "count"),
        Metric::new(
            "net.region.crc_retransmits",
            c.sum("net.region.crc_retransmits"),
            "count",
        ),
        Metric::new(
            "coherence.retry.useful_ratio",
            ratio(completed, completed + retries),
            "ratio",
        ),
        Metric::new("coherence.retries", retries, "count"),
        Metric::new("coherence.poisoned", c.sum("coherence.poisoned"), "count"),
        Metric::new(
            "sim.epoch.ns_per_event",
            plain.ns_per_work() * ratio(e.sum("coherence.completed"), events),
            "ns",
        ),
        Metric::new("sim.epoch.busy_share", busy, "ratio"),
        Metric::new("sim.epoch.barrier_share", 1.0 - busy, "ratio"),
        Metric::new(
            "sim.epoch.imbalance_milli",
            ratio(e.sum("sim.epoch.critical_events_x_shards") * 1000.0, events),
            "milli",
        ),
        Metric::new("sim.epoch.epochs", e.sum("sim.epoch.epochs"), "count"),
        Metric::new("sim.epoch.events", events, "count"),
        Metric::new("sim.epoch.merged", e.sum("sim.epoch.merged"), "count"),
    ]);
}

fn observed_layers(src: &Source, plain: &Source, out: &mut Vec<Metric>) {
    const RUNS: [&str; 3] = [
        "system::FaultCampaign::run_instrumented",
        "system::FaultCampaign::run_monitored",
        "system::FaultCampaign::run_observed",
    ];
    let all = src.sum(&RUNS);
    let reference = plain.get("system::FaultCampaign::run").ns_per_work();
    let c = &src.counts;
    out.extend([
        Metric::new(
            "telemetry.instrumented.ns_per_read",
            src.get(RUNS[0]).ns_per_work(),
            "ns",
        ),
        Metric::new(
            "telemetry.monitored.ns_per_read",
            src.get(RUNS[1]).ns_per_work(),
            "ns",
        ),
        Metric::new(
            "telemetry.observed.ns_per_read",
            src.get(RUNS[2]).ns_per_work(),
            "ns",
        ),
        Metric::new(
            "telemetry.overhead_ratio",
            ratio(all.ns_per_work(), reference),
            "ratio",
        ),
        Metric::new(
            "telemetry.timeline.windows",
            c.sum("telemetry.timeline.windows"),
            "count",
        ),
        Metric::new(
            "telemetry.latency_samples",
            c.sum("telemetry.latency_samples"),
            "count",
        ),
    ]);
}

/// The traced run: per-layer metrics and the tracing overhead.
fn per_layer(args: &Args) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    let w = args.workload;
    let units = w.units(args.seed);
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let timed = |t: &mut Tracer| {
        let start = Instant::now();
        let rep = run_rep(&units, t, run_unit);
        (rep, start.elapsed().as_secs_f64())
    };
    let cores = rotation(w);
    let mut pair = 0;
    let pairs = repeat(Duration::from_secs(args.seconds), || {
        if let Some(c) = &cores {
            c.pin(pair);
        }
        pair += 1;
        (timed(&mut on), timed(&mut off))
    });
    // Slices of the campaign workloads spawn epoch threads, which inherit
    // this thread's mask.
    if let Some(c) = &cores {
        c.restore();
    }
    // Best batch of each kind, as the end-to-end figures take bests.
    let best = |walls: Vec<f64>| walls.into_iter().fold(f64::INFINITY, f64::min);
    let traced_wall = best(pairs.iter().map(|p| p.0 .1).collect());
    let plain_wall = best(pairs.iter().map(|p| p.1 .1).collect());
    let mut reps: Vec<Rep> = Vec::new();
    for ((traced, _), (untraced, _)) in pairs {
        reps.push(traced);
        reps.push(untraced);
    }
    let full = Source::new(&on, &reps);
    let spans_per_batch = on.spans().len() as f64 / (reps.len() / 2) as f64;

    // Each layer metric comes from its home workload: this run's full
    // batches when that is the workload traced, else a few of its units.
    let source = |home: Workload| {
        if home == w {
            None
        } else {
            Some(Source::pass(&home.slice(args.seed)))
        }
    };
    let slices: Vec<(Workload, Option<Source>)> =
        Workload::ALL.iter().map(|&h| (h, source(h))).collect();
    let of = |home: Workload| -> &Source {
        slices
            .iter()
            .find(|(h, _)| *h == home)
            .and_then(|(_, s)| s.as_ref())
            .unwrap_or(&full)
    };
    let home_units = |home: Workload| {
        if home == w {
            units.clone()
        } else {
            home.slice(args.seed)
        }
    };
    let epochs = Source::pass(&with_mode(&home_units(Workload::Campaign), Mode::Profiled));
    let plain_ref = Source::pass(&with_mode(&home_units(Workload::Observed), Mode::Plain));

    let mut metrics = Vec::new();
    chase_layers(of(Workload::Chase), &mut metrics);
    load_layers(of(Workload::LoadTest), &mut metrics);
    campaign_layers(of(Workload::Campaign), &epochs, &mut metrics);
    observed_layers(of(Workload::Observed), &plain_ref, &mut metrics);
    let depth = metrics
        .iter()
        .find(|m| m.name == "sim.event_queue.peak_depth")
        .map_or(1, |m| m.value as u64);
    metrics.extend(probes::run(args.seed, depth, &mut Tracer::new(true))?);
    metrics.push(Metric::new(
        "trace.overhead_ms",
        (traced_wall - plain_wall) * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.spans_per_batch",
        spans_per_batch,
        "count",
    ));

    println!(
        "workload {} seed {} traced: {} traced + {} untraced batches; tracing overhead {:.3} ms per batch ({:.3} s traced vs {:.3} s untraced)",
        w.name(),
        args.seed,
        reps.len() / 2,
        reps.len() / 2,
        (traced_wall - plain_wall) * 1e3,
        traced_wall,
        plain_wall
    );
    println!(
        "  self time of the traced batches by span ({} spans):",
        on.spans().len()
    );
    for (name, t) in &full.totals {
        println!(
            "    {:<48} {:>8} calls {:>12.3} ms self {:>12} work",
            name,
            t.calls,
            t.self_ns as f64 / 1e6,
            t.work
        );
    }
    for m in &metrics {
        println!("  {:<36} {} {}", m.name, m.value, m.unit);
    }
    println!("digest {} {:#018x}", w.name(), full.digest.0);
    let passes = slices
        .iter()
        .filter_map(|(_, s)| s.as_ref())
        .chain([&full, &epochs, &plain_ref]);
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    for s in passes {
        attempted += s.attempted;
        failed += s.failed;
        failures.extend(s.failures.iter().cloned());
    }
    Ok((metrics, attempted, failed, failures))
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    // All load from this one process: one sweep worker, one event-queue
    // shard for the load tests; campaigns pin their own shards and threads.
    par::set_jobs(1);
    par::set_shards(1);
    par::set_threads(1);
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args).map(|(metrics, s)| {
            println!("digest {} {:#018x}", args.workload.name(), s.digest.0);
            (metrics, s.attempted, s.failed, s.failures)
        })
    };
    let (metrics, attempted, failed, failures) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &failures {
        println!("FAILED {f}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let named = metrics.iter().all(|m| valid_metric_name(m.name));
    if !finite || !named {
        eprintln!("simbench: a metric is not finite or badly named: {metrics:?}");
        return ExitCode::FAILURE;
    }
    println!("{}", json(failed == 0, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_follow_the_seed_except_on_chase() {
        // A few cheap units per workload stand in for the full batches.
        let digest = |w: Workload, seed| {
            let units: Vec<Unit> = w.slice(seed).into_iter().take(2).collect();
            summarise(&[run_rep(&units, &mut Tracer::new(false), run_unit)])
        };
        for w in Workload::ALL {
            let a = digest(w, 1);
            assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.failures);
            assert_eq!(
                a.digest,
                digest(w, 1).digest,
                "{} is not reproducible",
                w.name()
            );
            let other = digest(w, 2).digest;
            if w == Workload::Chase {
                assert_eq!(a.digest, other, "chase must not depend on the seed");
            } else {
                assert_ne!(a.digest, other, "{} ignores the seed", w.name());
            }
            assert_ne!(a.digest, Digest::default());
        }
    }

    #[test]
    fn every_metric_name_is_legal() {
        let names = [
            "setup_s",
            "wall_s",
            "ops_per_s",
            "unit_ns_per_op_p50",
            "unit_ns_per_op_tail",
            "peak_rss_mb",
            "paper_log_err",
        ];
        assert!(names.iter().all(|n| valid_metric_name(n)));
        let mut layer = Vec::new();
        let empty = Source {
            totals: BTreeMap::new(),
            counts: Counts::default(),
            digest: Digest::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        chase_layers(&empty, &mut layer);
        load_layers(&empty, &mut layer);
        campaign_layers(&empty, &empty, &mut layer);
        observed_layers(&empty, &empty, &mut layer);
        for m in &layer {
            assert!(valid_metric_name(m.name), "{}", m.name);
        }
        let manifest = include_str!("../../BENCHMARK.json");
        for m in layer.iter().map(|m| m.name).chain(names) {
            assert!(
                manifest.contains(&format!("\"{m}\"")),
                "{m} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn json_line_has_exactly_the_four_result_keys() {
        let line = json(true, 3, 0, &[Metric::new("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}

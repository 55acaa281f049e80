//! Repeated batches of units, failure accounting and end-to-end figures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::{median, percentile, tail_percentile, Digest};
use crate::trace::{ratio, Tracer};
use crate::workloads::{Counts, Outcome};

/// Fewest batches a measurement makes, whatever the time budget.
pub const MIN_REPS: usize = 3;

/// Units with fewer ops run for microseconds, where the host clock's
/// jitter swamps their cost; they count towards `wall_s` and `ops_per_s`
/// but not towards the per-unit distribution. The cut depends only on the
/// input, so every commit ranks the same units.
pub const MIN_TIMED_OPS: u64 = 1024;

/// One pass over every unit of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host ns in construction calls.
    pub setup_ns: u64,
    /// Host ns in runs.
    pub run_ns: u64,
    /// Ops of the units that succeeded.
    pub ops: u64,
    /// Per unit, `None` when it failed.
    pub units: Vec<Option<UnitTimes>>,
    /// `(unit index, reason)` of every failure.
    pub failures: Vec<(usize, String)>,
    /// Per-layer counts summed over the units that succeeded.
    pub counts: Counts,
}

/// One unit's share of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitTimes {
    /// Host ns in construction calls.
    pub setup_ns: u64,
    /// Host ns in the run.
    pub run_ns: u64,
    /// Ops the unit performed.
    pub ops: u64,
    /// Digest of its simulated statistics.
    pub digest: Digest,
}

/// Run every unit once through `exec`, counting a panic or an `Err` as
/// that unit's failure.
pub fn run_rep<U>(
    units: &[U],
    t: &mut Tracer,
    mut exec: impl FnMut(&U, &mut Tracer) -> Result<Outcome, String>,
) -> Rep {
    let mut rep = Rep::default();
    for (i, unit) in units.iter().enumerate() {
        let depth = t.depth();
        let outcome = catch_unwind(AssertUnwindSafe(|| exec(unit, &mut *t)));
        t.unwind_to(depth);
        match outcome {
            Ok(Ok(o)) => {
                rep.setup_ns += o.setup_ns;
                rep.run_ns += o.run_ns;
                rep.ops += o.ops;
                rep.counts.merge(&o.counts);
                rep.units.push(Some(UnitTimes {
                    setup_ns: o.setup_ns,
                    run_ns: o.run_ns,
                    ops: o.ops,
                    digest: o.digest,
                }));
            }
            Ok(Err(reason)) => {
                rep.failures.push((i, reason));
                rep.units.push(None);
            }
            Err(panic) => {
                let reason = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                rep.failures.push((i, format!("panicked: {reason}")));
                rep.units.push(None);
            }
        }
    }
    rep
}

/// Batches (or groups of them) run back to back until the next would end
/// past `budget`, and at least [`MIN_REPS`] of them.
pub fn repeat<T>(budget: Duration, mut one: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut reps: Vec<T> = Vec::new();
    loop {
        reps.push(one());
        let elapsed = start.elapsed();
        let mean = elapsed / reps.len() as u32;
        if reps.len() >= MIN_REPS && elapsed + mean > budget {
            return reps;
        }
    }
}

/// The end-to-end figures of a set of batches.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Batches measured.
    pub reps: usize,
    /// Units per batch.
    pub units: usize,
    /// Unit executions attempted and failed across every batch.
    pub attempted: u64,
    /// See [`attempted`](Self::attempted).
    pub failed: u64,
    /// Median over batches of the batch's set-up seconds.
    pub setup_s: f64,
    /// Sum over units of each unit's best set-up plus run seconds.
    pub wall_s: f64,
    /// Median over batches of the batch's set-up plus run seconds, for the
    /// report.
    pub wall_s_median: f64,
    /// All units' ops over the sum of their best run seconds.
    pub ops_per_s: f64,
    /// Units with at least [`MIN_TIMED_OPS`] ops, which the per-unit
    /// figures rank.
    pub timed_units: usize,
    /// Median over those units of each unit's best ns per op.
    pub unit_ns_per_op_p50: f64,
    /// The tail percentile of the same, and which percentile it is.
    pub unit_ns_per_op_tail: f64,
    /// See [`unit_ns_per_op_tail`](Self::unit_ns_per_op_tail).
    pub tail_percentile: f64,
    /// Digest of the first batch's simulated statistics.
    pub digest: Digest,
    /// The first failure reasons, for the report.
    pub failures: Vec<String>,
}

/// Summarise `reps`; a unit whose digest differs between batches counts
/// as failed in the later batch.
///
/// Host time on a shared machine carries additive noise: whole batches of
/// one input swing by a quarter above a steady floor, and a slow spell
/// rarely spares every batch. Each unit is independent, so its best time
/// over the batches is the steadiest estimate of its cost, and the run
/// figures are built from those bests. Set-up time, short and
/// allocation-bound, is the median over batches.
pub fn summarise(reps: &[Rep]) -> Summary {
    let n = reps.first().map_or(0, |r| r.units.len());
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut reference: Vec<Option<Digest>> = vec![None; n];
    // Per unit: best (set-up + run) ns, best run ns, ops.
    let mut best: Vec<Option<(u64, u64, u64)>> = vec![None; n];
    for (r, rep) in reps.iter().enumerate() {
        for (i, reason) in &rep.failures {
            failed += 1;
            failures.push(format!("batch {r} unit {i}: {reason}"));
        }
        for (i, u) in rep.units.iter().enumerate() {
            let Some(u) = *u else {
                continue;
            };
            match reference[i] {
                None => reference[i] = Some(u.digest),
                Some(d) if d != u.digest => {
                    failed += 1;
                    failures.push(format!("batch {r} unit {i}: simulated statistics changed"));
                    continue;
                }
                Some(_) => {}
            }
            let wall = u.setup_ns + u.run_ns;
            best[i] = Some(match best[i] {
                None => (wall, u.run_ns, u.ops),
                Some((w, run, ops)) => (w.min(wall), run.min(u.run_ns), ops),
            });
        }
    }
    let best: Vec<(u64, u64, u64)> = best.into_iter().flatten().collect();
    let unit_ns: Vec<f64> = best
        .iter()
        .filter(|&&(_, _, ops)| ops >= MIN_TIMED_OPS)
        .map(|&(_, run, ops)| ratio(run as f64, ops as f64))
        .collect();
    let tail_p = tail_percentile(unit_ns.len()).unwrap_or(50.0);
    let (p50, tail) = if unit_ns.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&unit_ns, 50.0), percentile(&unit_ns, tail_p))
    };
    let of_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let digest = reps.first().map_or(Digest::default(), |rep| {
        rep.units.iter().fold(Digest::default(), |d, u| {
            d.word(u.map_or(0, |u| u.digest.0))
        })
    });
    let total = |f: fn(&(u64, u64, u64)) -> u64| best.iter().map(f).sum::<u64>() as f64;
    failures.truncate(10);
    Summary {
        reps: reps.len(),
        units: n,
        attempted: (reps.len() * n) as u64,
        failed,
        setup_s: of_reps(&|r| r.setup_ns as f64 / 1e9),
        wall_s: total(|b| b.0) / 1e9,
        wall_s_median: of_reps(&|r| (r.setup_ns + r.run_ns) as f64 / 1e9),
        ops_per_s: ratio(total(|b| b.2), total(|b| b.1) / 1e9),
        timed_units: unit_ns.len(),
        unit_ns_per_op_p50: p50,
        unit_ns_per_op_tail: tail,
        tail_percentile: tail_p,
        digest,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(unit: u64) -> Outcome {
        let ops = unit * MIN_TIMED_OPS;
        Outcome {
            ops,
            setup_ns: 10,
            run_ns: 100 * ops,
            digest: Digest::default().word(ops),
            counts: Counts::default(),
        }
    }

    #[test]
    fn a_rigged_unit_counts_as_a_failure() {
        let units: Vec<u64> = (1..=30).collect();
        let exec = |&u: &u64, _: &mut Tracer| -> Result<Outcome, String> {
            match u {
                7 => panic!("rigged unit"),
                9 => Err("rigged check".into()),
                _ => Ok(ok(u)),
            }
        };
        let mut t = Tracer::new(false);
        let reps: Vec<Rep> = (0..3).map(|_| run_rep(&units, &mut t, exec)).collect();
        let s = summarise(&reps);
        assert_eq!(s.attempted, 90);
        assert_eq!(s.failed, 6);
        assert!(
            s.failures[0].contains("panicked: rigged unit"),
            "{:?}",
            s.failures
        );
        assert!(s.failures[1].contains("rigged check"), "{:?}", s.failures);
        assert_eq!(s.unit_ns_per_op_p50, 100.0);
        // 28 good units: only the median has ten beyond it.
        assert_eq!(s.tail_percentile, 50.0);
    }

    #[test]
    fn a_unit_whose_statistics_drift_between_batches_fails() {
        let units: Vec<u64> = (1..=25).collect();
        let mut batch = 0;
        let mut t = Tracer::new(false);
        let reps: Vec<Rep> = (0..3)
            .map(|_| {
                batch += 1;
                run_rep(&units, &mut t, |&u, _| {
                    let mut o = ok(u);
                    if u == 3 && batch == 2 {
                        o.digest = o.digest.word(1);
                    }
                    Ok(o)
                })
            })
            .collect();
        let s = summarise(&reps);
        assert_eq!((s.attempted, s.failed), (75, 1));
        assert!(s.failures[0].contains("statistics changed"));
    }

    #[test]
    fn units_too_short_to_time_are_not_ranked() {
        let mut t = Tracer::new(false);
        let exec = |&ops: &u64, _: &mut Tracer| -> Result<Outcome, String> {
            Ok(Outcome {
                ops,
                setup_ns: 0,
                run_ns: 7 * ops,
                digest: Digest::default(),
                counts: Counts::default(),
            })
        };
        let units = [MIN_TIMED_OPS - 1, MIN_TIMED_OPS];
        let s = summarise(&[run_rep(&units, &mut t, exec)]);
        assert_eq!(s.timed_units, 1);
        assert_eq!(s.wall_s, 7.0 * (2 * MIN_TIMED_OPS - 1) as f64 / 1e9);
    }

    #[test]
    fn run_figures_take_each_units_best_batch() {
        let units = [1u64, 2];
        let mut t = Tracer::new(false);
        let reps: Vec<Rep> = (0..3)
            .map(|b| {
                run_rep(&units, &mut t, |&u, _| {
                    let mut o = ok(u);
                    // Each unit is slow in a different batch.
                    if (u == 1 && b == 0) || (u == 2 && b == 1) {
                        o.run_ns *= 3;
                    }
                    Ok(o)
                })
            })
            .collect();
        let s = summarise(&reps);
        let k = MIN_TIMED_OPS as f64;
        assert_eq!(s.wall_s, (20.0 + 300.0 * k) / 1e9);
        assert_eq!(s.ops_per_s, 3.0 * k / (300.0 * k / 1e9));
        assert_eq!(s.setup_s, 20.0 / 1e9);
        assert_eq!(s.wall_s_median, (20.0 + 500.0 * k) / 1e9);
        assert_eq!(s.unit_ns_per_op_p50, 100.0);
    }

    #[test]
    fn repeat_honours_the_minimum_and_the_budget() {
        let mut calls = 0;
        let reps = repeat(Duration::ZERO, || {
            calls += 1;
            Rep::default()
        });
        assert_eq!((reps.len(), calls), (MIN_REPS, MIN_REPS));
    }
}

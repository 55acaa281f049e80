//! Chaos campaign driver: fuzz, replay the reproducer corpus, or prove a
//! seeded recovery-path mutation is caught and shrunk.
//!
//! ```text
//! chaos run    [--trials N] [--seed S] [--threads N]   fuzz the intact machine
//! chaos replay <dir-or-file> ...                       re-run committed reproducers
//! chaos mutate <mutation-id> [--write DIR] [--threads N]  catch + shrink a seeded bug
//! ```
//!
//! `--threads N` drives each trial's epoch-parallel closed loop with N pool
//! threads (`ALPHASIM_THREADS` is the environment equivalent; `--threads 0`
//! means all available cores). Results are byte-identical at any value —
//! threads only change which core advances each torus region.
//!
//! `run` draws N seeded random fault schedules (every fault kind: cuts,
//! repairs, degradations, transient corruption, drains, brownouts, RDRAM
//! channel churn), runs each under the always-on invariant monitors, and
//! exits 1 if any monitor fires — printing the automatically shrunk
//! minimal reproducer for each violation.
//!
//! `replay` loads reproducer JSON files (sorted, so output order is
//! stable) and re-runs each exactly as recorded: a reproducer must
//! violate again (the monitors still catch the bug it documents), and a
//! mutated reproducer's schedule must additionally come back clean on the
//! intact machine (the bug lives in the broken recovery path, not the
//! schedule). Exit 1 on any mismatch.
//!
//! `mutate` deliberately breaks one recovery path (`ignore-timeouts`,
//! `leak-poison`, `skip-window-refill`, `off-by-one-retry`), fuzzes until
//! the monitors catch it, shrinks the offending schedule, and with
//! `--write DIR` commits the reproducer to the corpus. Exit 1 if the
//! mutation is never caught — the monitors would have lost their teeth.
//!
//! A missing or unknown command, an unknown mutation id, or a count flag
//! (`--trials`, `--seed`, `--threads`) given something other than a
//! non-negative whole number is a usage error: the usage text goes to
//! stderr and the exit status is 2.

use std::process::ExitCode;

use alphasim::coherence::RetryPolicy;
use alphasim::kernel::SimDuration;
use alphasim::system::chaos::{replay, replay_healthy, run_chaos, ChaosOptions, Reproducer};
use alphasim::system::RecoveryMutation;
use alphasim_bench::{parse_count, UsageError};

const USAGE: &str = "usage: chaos run [--trials N] [--seed S] [--threads N]
       chaos replay <dir-or-file> ...
       chaos mutate <mutation-id> [--write DIR] [--threads N]";

/// Report a usage error with the usage text; exit status 2.
fn usage_error(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("chaos: {e}\n{USAGE}");
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of count flag `flag`, if given.
fn count_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, UsageError> {
    args.iter()
        .any(|a| a == flag)
        .then(|| parse_count(flag, flag_value(args, flag).as_deref()))
        .transpose()
}

/// Resolve `--threads`: absent → 0 (defer to `ALPHASIM_THREADS`, then 1);
/// `--threads 0` → all available cores; otherwise the given count.
fn threads_arg(args: &[String]) -> Result<usize, UsageError> {
    Ok(match count_flag(args, "--threads")? {
        None => 0,
        Some(0) => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        Some(n) => n,
    })
}

/// The options of `chaos run`.
fn run_options(args: &[String]) -> Result<ChaosOptions, UsageError> {
    Ok(ChaosOptions {
        trials: count_flag(args, "--trials")?.unwrap_or(50),
        base_seed: count_flag(args, "--seed")?.unwrap_or(0xC405),
        threads: threads_arg(args)?,
        ..ChaosOptions::default()
    })
}

fn cmd_run(args: &[String]) -> ExitCode {
    let opts = match run_options(args) {
        Ok(opts) => opts,
        Err(e) => return usage_error(e),
    };
    eprintln!(
        "chaos: {} trials from seed {:#x} on {}P ...",
        opts.trials, opts.base_seed, opts.cpus
    );
    let report = run_chaos(&opts);
    let struck = report.kinds_struck();
    let faults: usize = report.trials.iter().map(|t| t.faults_applied.len()).sum();
    println!(
        "{} trials, {} faults struck, {} fault kinds seen: {:?}",
        report.trials.len(),
        faults,
        struck.len(),
        struck
    );
    if report.reproducers.is_empty() {
        println!("all invariant monitors clean");
        return ExitCode::SUCCESS;
    }
    for rep in &report.reproducers {
        println!(
            "VIOLATION {}: monitors {:?}, shrunk to {} fault(s):",
            rep.name,
            rep.violations,
            rep.plan.len()
        );
        print!("{}", rep.to_json());
    }
    ExitCode::FAILURE
}

fn corpus_files(paths: &[String]) -> Vec<String> {
    let mut files = Vec::new();
    for path in paths {
        let meta = std::fs::metadata(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        if meta.is_dir() {
            let mut entries: Vec<String> = std::fs::read_dir(path)
                .unwrap_or_else(|e| panic!("{path}: {e}"))
                .map(|e| e.expect("read dir entry").path().display().to_string())
                .filter(|p| p.ends_with(".json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.clone());
        }
    }
    files
}

fn cmd_replay(paths: &[String]) -> ExitCode {
    let files = corpus_files(paths);
    if files.is_empty() {
        eprintln!("replay: no reproducer files found in {paths:?}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let rep = Reproducer::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (_, mutated) = replay(&rep).unwrap_or_else(|e| panic!("{file}: {e}"));
        if mutated.is_clean() {
            println!("{file}: FAILED — reproducer no longer violates");
            failures += 1;
            continue;
        }
        let monitors: std::collections::BTreeSet<&str> = mutated
            .violations
            .iter()
            .map(|v| v.monitor.as_str())
            .collect();
        if rep.mutation.is_some() {
            let (_, healthy) = replay_healthy(&rep).unwrap_or_else(|e| panic!("{file}: {e}"));
            if !healthy.is_clean() {
                println!("{file}: FAILED — schedule violates even without the mutation");
                failures += 1;
                continue;
            }
        }
        println!(
            "{file}: reproduces ({} fault(s), monitors {monitors:?})",
            rep.plan.len()
        );
    }
    if failures > 0 {
        println!("{failures}/{} reproducer(s) failed", files.len());
        return ExitCode::FAILURE;
    }
    println!("all {} reproducer(s) replay as recorded", files.len());
    ExitCode::SUCCESS
}

fn cmd_mutate(args: &[String]) -> ExitCode {
    let known = RecoveryMutation::ALL.map(RecoveryMutation::id);
    let Some(id) = args.iter().find(|a| !a.starts_with("--")) else {
        return usage_error(format!("mutate wants a mutation id: {known:?}"));
    };
    let Some(mutation) = RecoveryMutation::from_id(id) else {
        return usage_error(format!("unknown mutation {id:?}; known: {known:?}"));
    };
    let threads = match threads_arg(args) {
        Ok(n) => n,
        Err(e) => return usage_error(e),
    };
    let write_dir = flag_value(args, "--write");
    // The default 50 us timeout never exhausts its retries inside a ~7 us
    // run, so the off-by-one poison threshold is dead code under it. Hunt
    // that mutation with a hair-trigger policy: congestion from any fault
    // reads as loss, retries exhaust, and the extra attempt shows.
    let retry = if mutation == RecoveryMutation::OffByOneRetry {
        RetryPolicy {
            timeout: SimDuration::from_us(1.0),
            backoff_base: SimDuration::from_ns(250.0),
            backoff_cap: SimDuration::from_us(1.0),
            max_retries: 2,
        }
    } else {
        ChaosOptions::default().retry
    };
    // Scan seed batches until the broken path is exercised: a mutation
    // only shows when a random schedule drives traffic down that path.
    for batch in 0u64..8 {
        let opts = ChaosOptions {
            trials: 12,
            base_seed: 0xC405 + batch * 12,
            retry,
            mutation: Some(mutation),
            threads,
            ..ChaosOptions::default()
        };
        eprintln!("mutate {id}: batch {batch} (seeds {:#x}..)", opts.base_seed);
        let report = run_chaos(&opts);
        let Some(rep) = report.reproducers.first() else {
            continue;
        };
        println!(
            "caught by {:?}, shrunk to {} fault(s):",
            rep.violations,
            rep.plan.len()
        );
        print!("{}", rep.to_json());
        if rep.plan.len() > 3 {
            println!("FAILED: reproducer did not shrink to <= 3 faults");
            return ExitCode::FAILURE;
        }
        if let Some(dir) = write_dir {
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
            let path = format!("{dir}/{}.json", rep.name);
            std::fs::write(&path, rep.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }
    println!("FAILED: mutation {id} was never caught — monitors have lost their teeth");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some(other) => usage_error(format!("unknown command {other:?}")),
        None => usage_error("missing command"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_options_accept_counts_and_default_the_rest() {
        let opts = run_options(&args("--trials 7 --seed 18446744073709551615 --threads 3"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            (opts.trials, opts.base_seed, opts.threads),
            (7, u64::MAX, 3)
        );
        let opts = run_options(&[]).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((opts.trials, opts.base_seed, opts.threads), (50, 0xC405, 0));
        let all = run_options(&args("--threads 0")).unwrap_or_else(|e| panic!("{e}"));
        assert!(all.threads >= 1, "--threads 0 means all cores");
    }

    #[test]
    fn run_options_reject_non_counts_naming_the_flag() {
        for (line, flag, value) in [
            ("--trials many", "--trials", Some("many")),
            ("--trials -3", "--trials", Some("-3")),
            ("--seed 0xC405", "--seed", Some("0xC405")),
            (
                "--seed 18446744073709551616",
                "--seed",
                Some("18446744073709551616"),
            ),
            ("--threads 2.5", "--threads", Some("2.5")),
            ("--trials 4 --threads", "--threads", None),
        ] {
            let err = run_options(&args(line)).err();
            let want = UsageError {
                flag: flag.into(),
                value: value.map(str::to_string),
            };
            assert_eq!(err, Some(want), "{line}");
        }
    }

    #[test]
    fn threads_arg_is_zero_when_absent() {
        assert_eq!(threads_arg(&args("leak-poison --write dir")), Ok(0));
        assert_eq!(threads_arg(&args("leak-poison --threads 2")), Ok(2));
        assert!(threads_arg(&args("leak-poison --threads two")).is_err());
    }
}

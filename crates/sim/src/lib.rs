//! Discrete-event simulation kernel for the GS1280 reproduction.
//!
//! This crate provides the machinery every other `alphasim-*` crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond timestamps, so that
//!   component latencies compose without floating-point drift;
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   ordering among simultaneous events;
//! * [`DetRng`] — a seedable random-number source so every experiment is
//!   reproducible bit-for-bit;
//! * [`stats`] — counters, running statistics, histograms, utilization meters
//!   and time-series samplers used by the performance-counter ("Xmesh") layer;
//! * [`par`] — an ordered [`par::parallel_map`] used to fan independent
//!   simulations out across OS threads without changing their results;
//! * [`shard`] — the conservative-lookahead epoch scheduler for
//!   parallelism *inside* one run, byte-identical at any shard and thread
//!   count;
//! * [`FaultPlan`] — a seeded, time-sorted schedule of link/node/channel
//!   failures (and repairs, degradations, transients) for live
//!   fault-injection runs;
//! * [`chaos`] — seeded fault-schedule fuzzing: random legal plan
//!   generation from a [`chaos::ChaosConfig`] distribution, legality
//!   validation, and QuickCheck-style shrink transformations.
//!
//! # Examples
//!
//! ```
//! use alphasim_kernel::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_ns(5.0), "late");
//! q.schedule(SimTime::ZERO + SimDuration::from_ns(1.0), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t.as_ns(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod chaos;
mod event;
pub mod fault;
pub mod par;
mod rng;
pub mod shard;
pub mod stats;
mod time;

pub use event::{peak_event_depth, take_peak_event_depth, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use rng::DetRng;
pub use time::{Frequency, SimDuration, SimTime};

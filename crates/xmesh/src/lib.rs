//! Xmesh — the paper's graphical performance-monitoring tool, rebuilt
//! (paper §1, §6, Fig. 27; reference \[11\]).
//!
//! Xmesh "displays run-time information on utilization of CPUs, memory
//! controllers, inter-processor (IP) links, and I/O ports" and is how the
//! authors recognised hot-spot traffic ("the Zbox utilization on that CPU is
//! 53%, much higher than on any other CPU"). This crate provides the same
//! three capabilities over the simulator's counters:
//!
//! * [`MeshSnapshot`] — a point-in-time per-node utilization grid;
//! * [`render`] — an ASCII heat map of the grid (our Fig. 27);
//! * [`HotSpotReport`] / [`detect_hot_spots`] — the §6 detection rule.
//!
//! # Examples
//!
//! ```
//! use alphasim_xmesh::{MeshSnapshot, NodeCounters, detect_hot_spots};
//!
//! let mut snap = MeshSnapshot::new(4, 4);
//! snap.set(0, NodeCounters { zbox_util: 0.53, ip_util: 0.4, io_util: 0.0 });
//! let report = detect_hot_spots(&snap);
//! assert_eq!(report.hot_nodes, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod render;
mod snapshot;

pub use render::{render, render_metric, Metric};
pub use snapshot::{detect_hot_spots, HotSpotReport, MeshSnapshot, NodeCounters};

//! The 21364 interconnect, as a discrete-event, message-level simulator.
//!
//! Paper §2 describes the router: four compass links to torus neighbors,
//! two-level arbitration (per-input local arbiters nominating packets to
//! per-output global arbiters), virtual channels per coherence class so a
//! Response can never block behind a Request, VC0/VC1 dateline channels and
//! dimension-order escape routing against torus deadlocks, and an Adaptive
//! channel giving minimal adaptive routing.
//!
//! [`partition::RegionNet`] reproduces this at message granularity: per-class
//! VC queues with strict-priority output arbitration, minimal adaptive
//! output selection by backlog, wormhole-style latency accounting, and
//! calibrated congestion penalties (see `DESIGN.md` for the fidelity
//! argument). It is the one hop model in the crate. The epoch engine splits
//! it into torus row-band regions and applies live link cuts, degradation,
//! CRC retransmits, router pauses and drains at epoch barriers;
//! [`NetworkSim`] runs it as a single healthy region behind one sequential
//! event queue, the fabric of the paper's load tests. The deadlock-freedom
//! construction itself is checked as a graph property in
//! [`alphasim_topology::route`].
//!
//! # Examples
//!
//! ```
//! use alphasim_net::{NetworkSim, LinkTiming, MessageClass, Step};
//! use alphasim_topology::{Torus2D, NodeId};
//! use alphasim_kernel::SimTime;
//!
//! let mut net = NetworkSim::new(Torus2D::for_cpus(16), LinkTiming::ev7_torus());
//! net.send(SimTime::ZERO, NodeId::new(0), NodeId::new(10),
//!          MessageClass::Request, 16, 0);
//! let deliveries = net.drain_deliveries();
//! assert_eq!(deliveries.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod arbiter;
pub mod link;
mod msg;
pub mod partition;
pub mod region;
mod sim;
mod timing;

pub use msg::{Delivery, MessageClass, MessageId};
pub use partition::FaultError;
pub use sim::{NetworkSim, Step};
pub use timing::LinkTiming;

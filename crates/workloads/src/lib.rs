//! The measurement workloads of the paper, reconstructed:
//!
//! * [`PointerChase`] — lmbench-style dependent loads (Figs. 4–5);
//! * [`Stream`] — the McCalpin kernels, executable and verifiable
//!   (Figs. 6–7);
//! * [`Gups`] — random table updates stressing inter-processor bandwidth
//!   (Figs. 23–24);
//! * [`spec`] — synthetic SPEC CPU2000 profiles with a mechanistic IPC and
//!   utilization model (Figs. 1, 8–11, 25);
//! * [`apps`] — the §5 application classes: Fluent (CPU-bound) and NAS SP
//!   (bandwidth-bound MPI) (Figs. 19–22);
//! * [`sharing`] — data-sharing microbenchmarks (ping-pong, migratory,
//!   producer/consumers) over the trace-driven coherent machine, probing
//!   the read-dirty path the paper credits for parallel-workload wins.
//!
//! Workloads are machine-independent generators plus models parameterised
//! by machine properties; the machines themselves live in
//! `alphasim-system`, and the per-figure experiment drivers in `alphasim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod apps;
pub mod gups;
mod pointer_chase;
pub mod sharing;
pub mod spec;
mod stream;

pub use gups::{Gups, GupsConfig};
pub use pointer_chase::PointerChase;
pub use stream::{Stream, StreamKernel};

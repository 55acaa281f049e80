//! Moving the measuring thread from core to core between batches.
//!
//! On a shared host one core can run for minutes at two thirds of the
//! other's speed, and a single-threaded run that the scheduler leaves on
//! the slow core reads a third slower end to end. Pinning batch `b` to
//! the `b`-th allowed core gives every unit batches on every core, so the
//! unit's best time is its cost on the least-contended one.

#![allow(unsafe_code)]

use std::mem::size_of;

/// `cpu_set_t`: 1024 CPU bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` points to a live, initialised `CpuSet` of exactly
    // `size_of::<CpuSet>()` bytes, which the kernel only reads; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) == 0 }
}

/// The calling thread's allowed cores and its original mask.
pub struct Cores {
    original: CpuSet,
    cpus: Vec<usize>,
}

impl Cores {
    /// The calling thread's allowed cores, or `None` if the kernel will
    /// not say.
    pub fn allowed() -> Option<Self> {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: `mask` is a writable `CpuSet` of exactly
        // `size_of::<CpuSet>()` bytes for the kernel to fill; pid 0 names
        // the calling thread.
        let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) == 0 };
        let cpus: Vec<usize> = (0..16 * 64)
            .filter(|&c| mask.0[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (ok && !cpus.is_empty()).then_some(Cores {
            original: mask,
            cpus,
        })
    }

    /// Pin the calling thread to the core batch `batch` runs on.
    pub fn pin(&self, batch: usize) {
        let cpu = self.cpus[batch % self.cpus.len()];
        let mut mask = CpuSet([0; 16]);
        mask.0[cpu / 64] |= 1 << (cpu % 64);
        if !set_affinity(&mask) {
            eprintln!("simbench: could not pin to core {cpu}; batch runs unpinned");
        }
    }

    /// Give the calling thread its original mask back.
    pub fn restore(&self) {
        if !set_affinity(&self.original) {
            eprintln!("simbench: could not restore the core mask");
        }
    }
}

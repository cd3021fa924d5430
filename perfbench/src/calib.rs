//! The host-speed probe: a fixed piece of benchmark-owned work, timed
//! between kernel samples.
//!
//! On a shared virtual machine the host's speed drifts by 20% and more over
//! tens of seconds, and the drift moves every kernel of a run alike. The
//! probe runs the same instructions on every run and every version of the
//! program, so the ratio of a kernel sample to the probe times around it
//! follows the program and not the moment it ran at. A probe that refills
//! a cache-sized table tracks the kernels' drift better than a pure
//! arithmetic loop or a chase through a table beyond L2.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the chase table: 256 KiB, which fits L2 but is evicted by
/// the kernel that ran before the probe, so each probe refills it.
const TABLE: usize = 1 << 16;
/// Dependent steps per probe: two laps of the table, about a millisecond
/// on a 2-vCPU Xeon virtual machine.
const STEPS: u64 = 2 * TABLE as u64;

/// Seconds a probe would take on the reference host: kernel times are
/// reported as `sample / probe × PROBE_REF_S`. Any fixed value works, as
/// long as every run uses the same; this one is near the probe's median on
/// a 2-vCPU Xeon virtual machine, so the figures read as that host's
/// seconds.
pub const PROBE_REF_S: f64 = 1e-3;

/// The probe's state: a permutation that forms a single cycle.
#[derive(Debug)]
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    pub fn new() -> Probe {
        // Sattolo's shuffle with a fixed LCG: one cycle through every entry.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..TABLE).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((x >> 33) as usize) % i;
            next.swap(i, j);
        }
        Probe { next }
    }

    /// Seconds one probe takes now: a dependent chase through the table
    /// with a dependent multiply chain beside it.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut j = 0u32;
        let mut x = 1u64;
        for i in 0..STEPS {
            j = self.next[j as usize];
            x = x
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i ^ u64::from(j));
        }
        black_box((j, x));
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let p = Probe::new();
        let mut j = 0u32;
        for step in 1..=TABLE {
            j = p.next[j as usize];
            assert_eq!(j == 0, step == TABLE, "cycle closed after {step} steps");
        }
        assert!(p.time() > 0.0);
    }
}

//! Output invariants of the grid kernels, after
//! `tests/workload_correctness.rs`. Addresses come from the public
//! `fa_workloads::kernels` layout; iteration counts restate the kernel
//! definitions in `crates/workloads/src/suite.rs`.

use fa_isa::interp::GuestMem;
use fa_workloads::kernels::{BARRIER_BASE, COUNTER_BASE, DATA_BASE, LOCK_BASE};
use fa_workloads::WorkloadParams;

/// What a kernel's final guest memory must satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Lock-protected records: every test-and-set lock released, and the
    /// critical-section words of the records sum to
    /// `cores × iterations × increments`.
    Locked {
        /// Locks (and records) in the table.
        locks: u64,
        /// Words each critical section increments (`cs_work`).
        words: u64,
        /// Unscaled outer iterations.
        base_iters: i64,
        /// Increments per outer iteration (`burst × cs_work`).
        increments: u64,
    },
    /// The two-lock queue: both locks released, every item enqueued was
    /// dequeued, and every slot is empty.
    Queue {
        /// Unscaled iterations (one enqueue + one dequeue each).
        base_iters: i64,
        /// Ring slots.
        slots: u64,
    },
    /// The swap kernel: every record holds either an initial record value
    /// or an iteration index a thread swapped in.
    Swap {
        /// Records swapped among.
        elems: u64,
        /// Unscaled iterations.
        base_iters: i64,
    },
    /// Only the end-of-kernel barrier: its arrival count returns to 0.
    Barrier,
}

impl Invariant {
    /// The invariant of suite kernel `name`.
    pub fn of(name: &str) -> Invariant {
        match name {
            "TATP" => Invariant::Locked {
                locks: 256,
                words: 2,
                base_iters: 300,
                increments: 2,
            },
            "PC" => Invariant::Locked {
                locks: 8,
                words: 4,
                base_iters: 220,
                increments: 4,
            },
            "fft" => Invariant::Locked {
                locks: 16,
                words: 1,
                base_iters: 25,
                increments: 2,
            },
            "CQ" => Invariant::Queue {
                base_iters: 250,
                slots: 64,
            },
            "canneal" => Invariant::Swap {
                elems: 4096,
                base_iters: 400,
            },
            _ => Invariant::Barrier,
        }
    }

    /// The initial record values [`Invariant::check`] needs, read from the
    /// freshly built guest memory.
    pub fn snapshot(&self, mem: &GuestMem) -> Vec<u64> {
        match *self {
            Invariant::Swap { elems, .. } => {
                let mut v: Vec<u64> = (0..elems).map(|i| mem.load(record(i, 8))).collect();
                v.sort_unstable();
                v
            }
            _ => Vec::new(),
        }
    }

    /// Checks the final guest memory of a run built with `params`.
    ///
    /// # Errors
    ///
    /// The first broken invariant.
    pub fn check(
        &self,
        mem: &GuestMem,
        initial: &[u64],
        params: &WorkloadParams,
    ) -> Result<(), String> {
        let cores = params.cores as u64;
        let arrivals = mem.load(BARRIER_BASE as u64 + 8);
        if arrivals != 0 {
            return Err(format!("barrier arrival count {arrivals} left behind"));
        }
        match *self {
            Invariant::Locked {
                locks,
                words,
                base_iters,
                increments,
            } => {
                released((0..locks).map(|i| LOCK_BASE as u64 + i * 64), mem)?;
                let total: u64 = (0..locks)
                    .flat_map(|i| (0..words).map(move |w| record(i, 64) + w * 8))
                    .map(|a| mem.load(a))
                    .sum();
                let want = cores * scaled(base_iters, params.scale) * increments;
                if total != want {
                    return Err(format!(
                        "critical-section increments {total}, expected {want}"
                    ));
                }
            }
            Invariant::Queue { base_iters, slots } => {
                released(
                    [COUNTER_BASE as u64, COUNTER_BASE as u64 + 64].into_iter(),
                    mem,
                )?;
                let enq = mem.load(COUNTER_BASE as u64 + 8);
                let deq = mem.load(COUNTER_BASE as u64 + 64 + 8);
                let want = cores * scaled(base_iters, params.scale);
                if enq != deq || enq != want {
                    return Err(format!("{enq} enqueued, {deq} dequeued, expected {want}"));
                }
                if let Some(s) = (0..slots).find(|&s| mem.load(record(s, 64)) != 0) {
                    return Err(format!("queue slot {s} still full"));
                }
            }
            Invariant::Swap { elems, base_iters } => {
                let iters = scaled(base_iters, params.scale);
                for i in 0..elems {
                    let v = mem.load(record(i, 8));
                    if v >= iters && initial.binary_search(&v).is_err() {
                        return Err(format!(
                            "record {i} holds {v:#x}, never written by the kernel"
                        ));
                    }
                }
            }
            Invariant::Barrier => {}
        }
        Ok(())
    }
}

/// `fa_workloads::suite`'s iteration scaling.
fn scaled(base: i64, scale: f64) -> u64 {
    ((base as f64 * scale).round() as i64).max(2) as u64
}

fn record(i: u64, stride: u64) -> u64 {
    DATA_BASE as u64 + i * stride
}

fn released(mut locks: impl Iterator<Item = u64>, mem: &GuestMem) -> Result<(), String> {
    match locks.find(|&a| mem.load(a) != 0) {
        Some(a) => Err(format!("lock at {a:#x} never released")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: WorkloadParams = WorkloadParams {
        cores: 2,
        scale: 0.1,
        seed: 1,
    };

    #[test]
    fn locked_records_need_released_locks_and_every_increment() {
        let inv = Invariant::of("PC");
        let mut mem = GuestMem::new(fa_workloads::WORKLOAD_MEM_BYTES);
        assert!(
            inv.check(&mem, &[], &PARAMS).is_err(),
            "no increments at all"
        );
        // 2 cores × scaled(220, 0.1) = 22 iterations × 4 increments.
        mem.store(record(3, 64) + 8, 2 * 22 * 4);
        assert_eq!(inv.check(&mem, &[], &PARAMS), Ok(()));
        mem.store(LOCK_BASE as u64 + 5 * 64, 1);
        assert!(inv
            .check(&mem, &[], &PARAMS)
            .unwrap_err()
            .contains("never released"));
    }

    #[test]
    fn queue_must_drain_every_item() {
        let inv = Invariant::of("CQ");
        let mut mem = GuestMem::new(fa_workloads::WORKLOAD_MEM_BYTES);
        mem.store(COUNTER_BASE as u64 + 8, 50);
        mem.store(COUNTER_BASE as u64 + 64 + 8, 50);
        assert_eq!(inv.check(&mem, &[], &PARAMS), Ok(()));
        mem.store(COUNTER_BASE as u64 + 64 + 8, 49);
        assert!(inv.check(&mem, &[], &PARAMS).is_err());
        mem.store(COUNTER_BASE as u64 + 64 + 8, 50);
        mem.store(record(7, 64), 1);
        assert!(inv
            .check(&mem, &[], &PARAMS)
            .unwrap_err()
            .contains("slot 7"));
    }

    #[test]
    fn swapped_records_hold_only_values_the_kernel_wrote() {
        let inv = Invariant::of("canneal");
        let mut mem = GuestMem::new(fa_workloads::WORKLOAD_MEM_BYTES);
        mem.store(record(0, 8), 0xdead_beef_0000);
        let initial = inv.snapshot(&mem);
        // Records swap places, and an iteration index may be left behind.
        mem.store(record(0, 8), 0);
        mem.store(record(9, 8), 0xdead_beef_0000);
        mem.store(record(10, 8), 39);
        assert_eq!(inv.check(&mem, &initial, &PARAMS), Ok(()));
        mem.store(record(11, 8), 0x1234_5678_9abc);
        assert!(inv
            .check(&mem, &initial, &PARAMS)
            .unwrap_err()
            .contains("record 11"));
    }

    #[test]
    fn every_kernel_leaves_its_barrier_empty() {
        let mut mem = GuestMem::new(fa_workloads::WORKLOAD_MEM_BYTES);
        assert_eq!(Invariant::of("radix").check(&mem, &[], &PARAMS), Ok(()));
        mem.store(BARRIER_BASE as u64 + 8, 1);
        assert!(Invariant::of("radix").check(&mem, &[], &PARAMS).is_err());
    }
}

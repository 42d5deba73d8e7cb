//! Benchmark of the Free Atomics simulator: host throughput, set-up cost
//! and simulated speedup over three workloads, plus a traced run that
//! attributes host time to the simulator's layers from outside the
//! program. See `README.md` in this directory for the metrics and
//! workloads.

pub mod checks;
pub mod engine;
pub mod host;
pub mod run;
pub mod speed;
pub mod stats;
pub mod suite;

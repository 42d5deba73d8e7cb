//! Host speed, measured between simulations with a fixed reference
//! workload, so host times can be reported at one reference speed.
//!
//! The benchmark shares its host with other work, and the host's speed
//! drifts by a quarter and more over minutes while the simulated work
//! stays the same. The reference workload is the benchmark's own code
//! (an ordered map of random keys, allocation- and cache-bound like the
//! simulator), so it slows down with the host but not with the program:
//! scaling a host time by `REFERENCE / (median reference sample)` removes
//! most of the host's drift and none of a change in the simulator. The
//! host's speed also swings within a second, so a single run is scaled by
//! the samples taken nearest to it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Map operations in one reference sample, over keys drawn from
/// `0..KEYS`.
const SAMPLE_OPS: u64 = 150_000;
const KEYS: u64 = 200_000;
/// Median time of one reference sample at the reference speed: a 2-vCPU
/// Intel Xeon host in its quiet periods, where a scaled host time reads
/// as the raw one.
pub const REFERENCE: Duration = Duration::from_millis(35);
/// Work between two samples.
const INTERVAL: Duration = Duration::from_millis(250);
/// Samples behind each speed, at least.
const MIN_SAMPLES: usize = 5;
/// Samples nearest to a run that scale it.
const NEAREST: usize = 3;

/// One reference sample: a fixed sequence of map lookups and inserts.
fn reference_work() -> u64 {
    let mut map = BTreeMap::new();
    let (mut x, mut sum) = (0x2545_f491_4f6c_dd1d_u64, 0u64);
    for i in 0..SAMPLE_OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 40) % KEYS;
        match map.get(&key) {
            Some(v) => sum = sum.wrapping_add(*v),
            None => {
                map.insert(key, i);
            }
        }
    }
    sum.wrapping_add(map.len() as u64)
}

/// Takes reference samples while a phase of the benchmark runs.
#[derive(Debug)]
pub struct Meter {
    /// When each sample was taken (its midpoint), and its seconds.
    samples: Vec<(Instant, f64)>,
    spent: Duration,
    last: Instant,
}

impl Default for Meter {
    fn default() -> Meter {
        Meter {
            samples: Vec::new(),
            spent: Duration::ZERO,
            last: Instant::now(),
        }
    }
}

impl Meter {
    /// Takes a sample when [`INTERVAL`] has passed since the last one (or
    /// since the meter started). Call it between timed operations.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(reference_work());
        let d = t0.elapsed();
        self.samples.push((t0 + d / 2, d.as_secs_f64()));
        self.spent += d;
        self.last = Instant::now();
    }

    /// Host time the samples took so far: the caller leaves it out of
    /// its own wall time.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Tops the samples up to [`MIN_SAMPLES`] and returns the phase's
    /// speed.
    pub fn finish(mut self) -> Speed {
        while self.samples.len() < MIN_SAMPLES {
            self.sample();
        }
        let secs: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        let sample = median(&secs).unwrap_or(f64::NAN);
        Speed {
            factor: REFERENCE.as_secs_f64() / sample,
            sample_ms: sample * 1e3,
            samples: self.samples,
        }
    }
}

/// The host's speed over one phase.
#[derive(Clone, Debug, Default)]
pub struct Speed {
    /// What a host time of the phase is multiplied by to read at the
    /// reference speed: above 1 when the host ran fast.
    pub factor: f64,
    /// Median reference sample, in ms.
    pub sample_ms: f64,
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    /// `d` at the reference speed, in seconds.
    pub fn secs(&self, d: Duration) -> f64 {
        d.as_secs_f64() * self.factor
    }

    /// `d`, a run that started at `start`, at the reference speed of the
    /// [`NEAREST`] samples nearest to the run's midpoint, in seconds.
    pub fn secs_at(&self, start: Instant, d: Duration) -> f64 {
        let mid = start + d / 2;
        let mut near = self.samples.clone();
        near.sort_by_key(|&(at, _)| if at > mid { at - mid } else { mid - at });
        let secs: Vec<f64> = near.iter().take(NEAREST).map(|&(_, s)| s).collect();
        match median(&secs) {
            Some(sample) => d.as_secs_f64() * REFERENCE.as_secs_f64() / sample,
            None => self.secs(d),
        }
    }

    /// Reference samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed_and_a_meter_takes_its_minimum() {
        assert_eq!(reference_work(), reference_work());
        let mut m = Meter::default();
        m.tick();
        let speed = m.finish();
        assert_eq!(speed.samples(), MIN_SAMPLES);
        assert!(speed.factor > 0.0 && speed.factor.is_finite());
        let d = Duration::from_millis(10);
        assert_eq!(speed.secs(d), 0.01 * speed.factor);
    }

    #[test]
    fn a_run_is_scaled_by_the_samples_nearest_to_it() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let r = REFERENCE.as_secs_f64();
        // Fast samples early, slow ones late.
        let speed = Speed {
            factor: 1.0,
            sample_ms: 0.0,
            samples: vec![
                (at(0), r / 2.0),
                (at(100), r / 2.0),
                (at(200), r / 2.0),
                (at(900), r * 2.0),
                (at(1000), r * 2.0),
                (at(1100), r * 2.0),
            ],
        };
        let d = Duration::from_millis(40);
        assert!((speed.secs_at(at(80), d) - 0.08).abs() < 1e-12);
        assert!((speed.secs_at(at(980), d) - 0.02).abs() < 1e-12);
        assert_eq!(Speed::default().secs_at(t, d), 0.0);
    }
}

//! One benchmark run: passes in a closed loop for the requested seconds,
//! then the end-to-end metrics (untraced) or the per-layer metrics
//! (traced). Every host time is reported at the reference host speed
//! (see [`crate::speed`]), scaled by the speed measured over its pass.

use crate::engine::Engine;
use crate::host;
use crate::speed::{Meter, Speed};
use crate::stats::{median, percentile, tail_percentile};
use crate::suite::{Bench, Pass};
use fa_sim::CpiLeaf;
use std::time::{Duration, Instant};

/// Passes a `--trace 0` run makes at least, and the `Machine::run` calls
/// they must add up to, so that `run_ms.tail` rests on the same percentile
/// (p75 on the grids) whatever the host's speed.
const MIN_PASSES: usize = 3;
const MIN_RUN_CALLS: usize = 40;
/// Set-up samples a run's `setup_s` median is taken over, at least, and
/// the set-up time they must add up to: a grid's set-up is tens of
/// milliseconds, too short for a few samples to be steady.
const SETUP_SAMPLES: usize = 9;
const SETUP_TOTAL: Duration = Duration::from_secs(2);

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was obtained (sample count, percentile), for the
    /// human-readable report.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Passes through `Machine::run`.
    pub untraced: Vec<Pass>,
    /// Passes through the traced cycle loop.
    pub traced: Vec<Pass>,
    /// Set-up time samples, in seconds at the reference speed: one per
    /// untraced pass, topped up with set-up-only rounds.
    pub setup: Vec<f64>,
    /// The host's speed over the set-up-only rounds, if any ran.
    pub setup_speed: Option<Speed>,
}

/// Runs passes of `bench` for about `seconds`: a new pass starts while it
/// is expected to end less than half a pass past the budget, and a
/// `--trace 0` run makes at least [`MIN_PASSES`] passes and
/// [`MIN_RUN_CALLS`] runs. With `trace`, untraced and traced passes
/// alternate. `max_cycles` overrides the runs' cycle budget.
pub fn measure(bench: &Bench, seconds: u64, trace: bool, max_cycles: Option<u64>) -> Run {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut run = Run::default();
    loop {
        let t0 = Instant::now();
        run.untraced.push(bench.pass(Engine::Machine, max_cycles));
        if trace {
            run.traced.push(bench.pass(Engine::Traced, max_cycles));
        }
        let calls: usize = run.untraced.iter().map(|p| p.timers.runs.len()).sum();
        let enough = trace || (run.untraced.len() >= MIN_PASSES && calls >= MIN_RUN_CALLS);
        if enough && start.elapsed() + t0.elapsed() / 2 >= budget {
            break;
        }
    }
    if !trace {
        run.setup = run
            .untraced
            .iter()
            .map(|p| p.speed.secs(p.timers.setup()))
            .collect();
        let (mut meter, mut rounds) = (Meter::default(), Vec::new());
        let mut total: Duration = run.untraced.iter().map(|p| p.timers.setup()).sum();
        while run.setup.len() + rounds.len() < SETUP_SAMPLES || total < SETUP_TOTAL {
            let d = bench.setup_only(&mut meter);
            total += d;
            rounds.push(d);
        }
        if !rounds.is_empty() {
            let speed = meter.finish();
            run.setup.extend(rounds.iter().map(|&d| speed.secs(d)));
            run.setup_speed = Some(speed);
        }
    }
    run
}

fn passes(run: &Run) -> impl Iterator<Item = &Pass> {
    run.untraced.iter().chain(&run.traced)
}

fn median_of(ps: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&ps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The median over cells of each cell's median over passes, and the
/// cells, when every pass timed the same cells in the same order: the
/// p50 of the calls with each cell's noise taken out first, so that it
/// does not swap the cells on either side of the median. `None` when the
/// passes differ.
fn cell_median(per_pass: &[Vec<f64>]) -> Option<(f64, usize)> {
    let cells = per_pass.first()?.len();
    if cells == 0 || per_pass.iter().any(|p| p.len() != cells) {
        return None;
    }
    let medians: Vec<f64> = (0..cells)
        .map(|i| median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>()).unwrap_or(f64::NAN))
        .collect();
    Some((median(&medians)?, cells))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Run {
    /// Simulated runs attempted over every pass.
    pub fn attempted(&self) -> u64 {
        passes(self).map(|p| p.attempted).sum()
    }

    /// Runs whose simulated statistics differ from the first untraced
    /// pass's: a traced run that does not reproduce `Machine::run`, or a
    /// pass that did not repeat.
    pub fn mismatches(&self) -> u64 {
        let Some(reference) = self.untraced.first() else {
            return 0;
        };
        let want = &reference.run_digests;
        passes(self)
            .skip(1)
            .map(|p| {
                let differ = p
                    .run_digests
                    .iter()
                    .zip(want)
                    .filter(|(a, b)| a != b)
                    .count();
                (differ + p.run_digests.len().abs_diff(want.len())) as u64
            })
            .sum()
    }

    /// Failed runs: errors, timeouts, broken invariants, forbidden
    /// outcomes, checker violations and mismatched repeats.
    pub fn failed(&self) -> u64 {
        passes(self).map(|p| p.failures.len() as u64).sum::<u64>() + self.mismatches()
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted() as f64)
    }

    /// One line per failure, for the report.
    pub fn failure_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = passes(self)
            .flat_map(|p| p.failures.iter().cloned())
            .collect();
        if self.mismatches() > 0 {
            lines.push(format!(
                "{} runs did not reproduce the first pass's statistics",
                self.mismatches()
            ));
        }
        lines
    }

    /// The simulated-results digest every pass must share.
    pub fn sim_digest(&self) -> u64 {
        self.untraced.first().map_or(0, Pass::digest)
    }

    /// The end-to-end metrics, from the untraced passes.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ps = &self.untraced;
        let n = ps.len();
        let note = format!("median of {n} passes");
        let per_pass: Vec<Vec<f64>> = ps
            .iter()
            .map(|p| {
                let t = &p.timers;
                t.run_starts
                    .iter()
                    .zip(&t.runs)
                    .map(|(&at, &d)| p.speed.secs_at(at, d) * 1e3)
                    .collect()
            })
            .collect();
        let runs_ms: Vec<f64> = per_pass.iter().flatten().copied().collect();
        let (p50, p50_note) = cell_median(&per_pass).map_or_else(
            || {
                (
                    median(&runs_ms).unwrap_or(f64::NAN),
                    format!("{} Machine::run calls", runs_ms.len()),
                )
            },
            |(v, cells)| {
                (
                    v,
                    format!("median over {cells} cells of each cell's median over {n} passes"),
                )
            },
        );
        let tail = tail_percentile(runs_ms.len());
        let first = ps.first();
        vec![
            metric(
                "wall_s",
                median_of(ps, |p| p.speed.secs(p.wall)),
                "s",
                note.clone(),
            ),
            metric(
                "sim_mips",
                median_of(ps, |p| {
                    ratio(p.instructions as f64, p.speed.secs(p.timers.run_total())) / 1e6
                }),
                "MIPS",
                format!("{note}; committed instructions per host second in Machine::run"),
            ),
            metric("run_ms.p50", p50, "ms", p50_note),
            metric(
                "run_ms.tail",
                percentile(&runs_ms, tail.unwrap_or(100.0)).unwrap_or(f64::NAN),
                "ms",
                match tail {
                    Some(p) => format!(
                        "p{p} of {} calls, {:.0} beyond",
                        runs_ms.len(),
                        runs_ms.len() as f64 * (100.0 - p) / 100.0
                    ),
                    None => format!("max of {} calls: too few for a percentile", runs_ms.len()),
                },
            ),
            metric(
                "setup_s",
                median(&self.setup).unwrap_or(f64::NAN),
                "s",
                format!("median of {} set-ups of every cell", self.setup.len()),
            ),
            metric(
                "rss_peak_mb",
                host::rss_peak_mb().unwrap_or(f64::NAN),
                "MiB",
                "VmHWM",
            ),
            metric(
                "sim_cycles",
                first.map_or(f64::NAN, |p| p.sim_cycles as f64),
                "cycles",
                "simulated, summed over a pass's runs",
            ),
            metric(
                "freefwd_speedup",
                first.map_or(f64::NAN, |p| p.speedup),
                "x",
                "simulated, geomean of FencedBaseline/FreeFwd cycles",
            ),
        ]
    }

    /// The per-layer metrics: host time from the traced passes, simulated
    /// counters from the runs' statistics.
    pub fn per_layer(&self) -> Vec<Metric> {
        let ps = &self.traced;
        let note = format!("median of {} traced passes", ps.len());
        let t = |name: &str, unit: &'static str, f: &dyn Fn(&Pass) -> f64| {
            metric(name, median_of(ps, f), unit, note.clone())
        };
        let secs = |p: &Pass, d: Duration| p.speed.secs(d);
        let per = |p: &Pass, d: Duration, calls: u64, scale: f64| {
            ratio(p.speed.secs(d) * scale, calls as f64)
        };
        let untraced_wall = median_of(&self.untraced, |p| p.speed.secs(p.wall));
        let mut out = vec![
            t("workloads.build_s", "s", &|p| secs(p, p.timers.build)),
            t("mem.new_ms", "ms", &|p| {
                per(p, p.timers.mem_new, p.timers.mem_news, 1e3)
            }),
            t("mem.drop_ms", "ms", &|p| {
                per(p, p.timers.teardown, p.timers.teardowns, 1e3)
            }),
            t("core.new_ms", "ms", &|p| {
                per(p, p.timers.core_new, p.timers.core_news, 1e3)
            }),
            t("core.tick_s", "s", &|p| secs(p, p.timers.core_tick)),
            t("core.tick_ns", "ns", &|p| {
                per(p, p.timers.core_tick, p.timers.core_ticks, 1e9)
            }),
            t("core.ns_per_instr", "ns", &|p| {
                per(p, p.timers.core_tick, p.instructions, 1e9)
            }),
            t("mem.tick_s", "s", &|p| secs(p, p.timers.mem_tick)),
            t("mem.tick_ns", "ns", &|p| {
                per(p, p.timers.mem_tick, p.timers.mem_ticks, 1e9)
            }),
            t("sim.loop_s", "s", &|p| secs(p, p.timers.loop_self())),
            t("axiom.check_s", "s", &|p| secs(p, p.timers.check)),
            t("axiom.ns_per_event", "ns", &|p| {
                per(p, p.timers.check, p.timers.check_events, 1e9)
            }),
            t("tsoref.enum_s", "s", &|p| secs(p, p.timers.enumerate)),
            t("fuzz.campaign_s", "s", &|p| secs(p, p.timers.fuzz)),
            metric(
                "trace.overhead",
                median_of(ps, |p| p.speed.secs(p.wall)) / untraced_wall - 1.0,
                "ratio",
                "median traced pass wall / median untraced pass wall - 1",
            ),
            t("trace.attributed", "ratio", &|p| {
                ratio(p.timers.attributed().as_secs_f64(), p.wall.as_secs_f64())
            }),
        ];
        if let Some(p) = self.untraced.first() {
            let c = &p.counters;
            let core_cycles: u64 = c.cpi.iter().sum();
            let sim = |name: &str, value: f64, unit: &'static str| {
                metric(name, value, unit, "simulated, per pass")
            };
            for leaf in CpiLeaf::ALL {
                let share = ratio(c.cpi[leaf.index()] as f64, core_cycles as f64);
                out.push(sim(&format!("cpi.{}", leaf.name()), share, "share"));
            }
            out.extend([
                sim(
                    "core.squash_ratio",
                    ratio(c.squashed_uops as f64, (c.uops + c.squashed_uops) as f64),
                    "ratio",
                ),
                sim(
                    "core.atomic_exec_cyc",
                    ratio(c.atomic_exec_cycles as f64, c.atomics as f64),
                    "cycles",
                ),
                sim(
                    "core.atomic_drain_cyc",
                    ratio(c.atomic_drain_cycles as f64, c.atomics as f64),
                    "cycles",
                ),
                sim("core.fences_omitted", c.fences_omitted as f64, "count"),
                sim("core.aq_full_stalls", c.aq_full_stalls as f64, "count"),
                sim(
                    "mem.l1_hit_ratio",
                    ratio(c.l1_hits as f64, c.demand_reads as f64),
                    "ratio",
                ),
                sim("mem.remote_transfers", c.remote_transfers as f64, "count"),
                sim("mem.parked_on_lock", c.parked_on_lock as f64, "count"),
                sim("mem.fill_stalled", c.fill_stalled as f64, "count"),
                sim("dir.parked_busy", c.dir_parked_busy as f64, "count"),
                sim("dir.alloc_waits", c.dir_alloc_waits as f64, "count"),
                sim("noc.messages", c.noc_messages as f64, "count"),
                sim("progress.retries", c.progress_retries as f64, "count"),
                sim("tsoref.outcomes", c.outcomes as f64, "count"),
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_failures_are_counted_not_fatal() {
        // A 100-cycle budget times out every grid run.
        let bench = Bench::new("compute-grid", 1).expect("known workload");
        for trace in [false, true] {
            let run = measure(&bench, 0, trace, Some(100));
            // Five 8-run passes reach MIN_RUN_CALLS.
            let passes = if trace { 2 } else { 5 };
            assert_eq!(run.attempted(), 8 * passes);
            assert_eq!(run.failed(), 8 * passes, "trace {trace}");
            assert_eq!(run.fail_ratio(), 1.0);
            assert!(run.failure_lines()[0].contains("did not quiesce"));
            let metrics = if trace {
                run.per_layer()
            } else {
                run.end_to_end()
            };
            assert!(!metrics.is_empty());
        }
    }

    #[test]
    fn p50_takes_each_cells_median_first() {
        // Two cells either side of the median; one noisy call of each
        // crosses over.
        let passes = vec![vec![100.0, 200.0], vec![210.0, 90.0], vec![100.0, 200.0]];
        assert_eq!(cell_median(&passes), Some((150.0, 2)));
        assert_eq!(cell_median(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(cell_median(&[]), None);
    }

    #[test]
    fn a_pass_that_does_not_repeat_counts_as_failed() {
        let mut run = Run::default();
        let pass = |digests: Vec<u64>| Pass {
            attempted: digests.len() as u64,
            run_digests: digests,
            ..Pass::default()
        };
        run.untraced.push(pass(vec![1, 2, 3]));
        run.traced.push(pass(vec![1, 2, 3]));
        assert_eq!(run.failed(), 0);
        run.traced.push(pass(vec![1, 9, 3]));
        assert_eq!(run.failed(), 1);
        assert_eq!(run.attempted(), 9);
    }

    /// `(name, unit)` of every entry in `BENCHMARK.json`'s `list`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| {
            let from = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
            entry[from..]
                .split('"')
                .next()
                .expect("string value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let run = Run {
            untraced: vec![Pass::default()],
            traced: vec![Pass::default()],
            setup: vec![1.0],
            setup_speed: None,
        };
        for (list, metrics) in [
            ("end_to_end", run.end_to_end()),
            ("per_layer", run.per_layer()),
        ] {
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(list), "{list}");
        }
    }
}

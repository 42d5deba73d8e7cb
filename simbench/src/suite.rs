//! The benchmark's three workloads and one pass over each.
//!
//! A pass simulates every cell of a workload once, in a closed loop, one
//! simulation at a time. Every pass of a run repeats the same seeded
//! inputs, so its simulated results (and [`Pass::digest`]) must repeat
//! exactly; only host time varies.

use crate::checks::Invariant;
use crate::engine::{simulate, Engine, Timers};
use crate::speed::{Meter, Speed};
use crate::stats::geomean;
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_sim::fuzz::FuzzConfig;
use fa_sim::{
    fuzz_litmus, icelake_like, tiny_machine, CheckMode, LitmusTest, MemModel, Methodology,
    RunResult, CPI_LEAVES,
};
use fa_workloads::{suite, WorkloadParams, WorkloadSpec};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["atomic-grid", "compute-grid", "litmus-conformance"];

/// Cores of the grid machines.
const GRID_CORES: usize = 4;
/// Kernel scale of the atomic grid (the ROADMAP-pinned grid).
const ATOMIC_SCALE: f64 = 0.15;
/// Kernel scale of the compute grid.
const COMPUTE_SCALE: f64 = 0.35;
/// Largest litmus start offset, in cycles: wide enough to reorder the
/// threads' few dozen cycles of work, as the litmus suites' offsets do.
const LITMUS_MAX_OFFSET: u64 = 100;
/// Seeded offset vectors per litmus cell, besides all-zero.
const LITMUS_OFFSET_SETS: usize = 5;
/// Cycle budget of one litmus run (`LitmusTest::run_detailed`'s).
const LITMUS_MAX_CYCLES: u64 = 5_000_000;
/// Guest memory of a litmus machine and its observation slots, as laid
/// out by `LitmusTest::to_programs`.
const LITMUS_MEM: u64 = 1 << 16;
const LITMUS_OUT_BASE: u64 = 0x4000;
/// Generated programs in the litmus workload's fuzz campaign.
const FUZZ_CASES: u64 = 40;

/// One workload, with its seeded inputs.
pub enum Bench {
    /// Kernels × policies on the icelake machine.
    Grid(Grid),
    /// The litmus galleries plus a fuzz campaign.
    Gallery(Gallery),
}

/// A kernel × policy grid.
pub struct Grid {
    kernels: Vec<WorkloadSpec>,
    policies: Vec<AtomicPolicy>,
    params: WorkloadParams,
    meth: Methodology,
}

/// The litmus galleries × policies × start offsets, and a fuzz campaign.
pub struct Gallery {
    tests: Vec<(LitmusTest, MemModel)>,
    offsets: Vec<Vec<u64>>,
    fuzz: FuzzConfig,
}

impl Bench {
    /// The workload `name` with inputs drawn from `seed`; `None` for an
    /// unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Bench> {
        let meth = Methodology {
            seed,
            ..Methodology::default()
        };
        let grid = |kernels: &[&str], policies: &[AtomicPolicy], scale: f64| {
            Bench::Grid(Grid {
                kernels: kernels
                    .iter()
                    .map(|k| suite::by_name(k).expect("grid kernels are suite kernels"))
                    .collect(),
                policies: policies.to_vec(),
                params: WorkloadParams {
                    cores: GRID_CORES,
                    scale,
                    seed,
                },
                meth,
            })
        };
        match name {
            "atomic-grid" => Some(grid(
                &["TATP", "PC", "CQ", "canneal"],
                &AtomicPolicy::ALL,
                ATOMIC_SCALE,
            )),
            "compute-grid" => Some(grid(
                &["ocean_cp", "radix", "fft", "lu_cb"],
                &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
                COMPUTE_SCALE,
            )),
            "litmus-conformance" => {
                let tests: Vec<(LitmusTest, MemModel)> = LitmusTest::all()
                    .into_iter()
                    .map(|t| (t, MemModel::Tso))
                    .chain(
                        LitmusTest::weak_gallery()
                            .into_iter()
                            .map(|t| (t, MemModel::Weak)),
                    )
                    .collect();
                let lmeth = Methodology {
                    max_offset: LITMUS_MAX_OFFSET,
                    ..meth
                };
                let width = tests
                    .iter()
                    .map(|(t, _): &(LitmusTest, _)| t.threads.len())
                    .max()
                    .unwrap_or(0);
                let offsets = std::iter::once(vec![0; width])
                    .chain((0..LITMUS_OFFSET_SETS).map(|k| lmeth.run_offsets(k, width)))
                    .collect();
                let fuzz = FuzzConfig {
                    cases: FUZZ_CASES,
                    seed,
                    threads: 1,
                    ..FuzzConfig::default()
                };
                Some(Bench::Gallery(Gallery {
                    tests,
                    offsets,
                    fuzz,
                }))
            }
            _ => None,
        }
    }

    /// One pass over every cell; `max_cycles` overrides each run's cycle
    /// budget (tests use it to inject failures).
    pub fn pass(&self, engine: Engine, max_cycles: Option<u64>) -> Pass {
        match self {
            Bench::Grid(g) => g.pass(engine, max_cycles.unwrap_or(g.meth.max_cycles)),
            Bench::Gallery(g) => g.pass(engine, max_cycles.unwrap_or(LITMUS_MAX_CYCLES)),
        }
    }

    /// Set-up time alone: every cell's program build and `Machine::new`,
    /// timed as a pass times them, with nothing run. `meter` samples the
    /// host's speed in between.
    pub fn setup_only(&self, meter: &mut Meter) -> Duration {
        let mut total = Duration::ZERO;
        let mut time = |f: &mut dyn FnMut() -> fa_sim::Machine| {
            let t0 = Instant::now();
            let m = f();
            total += t0.elapsed();
            drop(m);
            meter.tick();
        };
        match self {
            Bench::Grid(g) => {
                for spec in &g.kernels {
                    for &policy in &g.policies {
                        time(&mut || {
                            let w = spec.build(&g.params);
                            fa_sim::Machine::new(g.config(policy), w.programs, w.mem)
                        });
                    }
                }
            }
            Bench::Gallery(g) => {
                for (test, model) in &g.tests {
                    for _ in &g.offsets {
                        for policy in AtomicPolicy::ALL {
                            let cfg = litmus_config(*model, policy);
                            time(&mut || {
                                let guest = GuestMem::new(LITMUS_MEM);
                                fa_sim::Machine::new(cfg.clone(), test.to_programs(), guest)
                            });
                        }
                    }
                }
            }
        }
        total
    }
}

impl Grid {
    fn config(&self, policy: AtomicPolicy) -> fa_sim::MachineConfig {
        let mut cfg = icelake_like();
        cfg.core.policy = policy;
        cfg
    }

    fn pass(&self, engine: Engine, max_cycles: u64) -> Pass {
        let start = Instant::now();
        let mut meter = Meter::default();
        let mut p = Pass::default();
        let mut ratios = Vec::new();
        for (k, spec) in self.kernels.iter().enumerate() {
            // Every policy of a kernel starts from the same perturbation,
            // so the speedup compares like with like.
            let offsets = self.meth.run_offsets(k, self.params.cores);
            let inv = Invariant::of(spec.name);
            let mut cycles = Vec::new();
            for &policy in &self.policies {
                let t0 = Instant::now();
                let w = spec.build(&self.params);
                p.timers.build += t0.elapsed();
                let initial = inv.snapshot(&w.mem);
                p.attempted += 1;
                let cfg = self.config(policy);
                let outcome = match simulate(
                    engine,
                    &cfg,
                    w.programs,
                    w.mem,
                    offsets.clone(),
                    max_cycles,
                    &mut p.timers,
                ) {
                    Ok((r, fin)) => {
                        let verdict = inv.check(fin.guest_mem(), &initial, &self.params);
                        p.timers.retire(fin);
                        verdict.map(|()| r)
                    }
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok(r) => {
                        cycles.push((policy, r.cycles));
                        p.record(&r, &[]);
                    }
                    Err(e) => p.fail(format!("{} {}: {e}", spec.name, policy.label())),
                }
                meter.tick();
            }
            ratios.extend(baseline_over_fwd(&cycles));
        }
        p.speedup = geomean(&ratios).unwrap_or(f64::NAN);
        p.wall = start.elapsed().saturating_sub(meter.spent());
        p.speed = meter.finish();
        p
    }
}

/// FencedBaseline cycles over FreeFwd cycles among one kernel's (or one
/// litmus cell's) runs, when both succeeded.
fn baseline_over_fwd(cycles: &[(AtomicPolicy, u64)]) -> Option<f64> {
    let of = |want| {
        cycles
            .iter()
            .find(|&&(p, _)| p == want)
            .map(|&(_, c)| c as f64)
    };
    Some(of(AtomicPolicy::FencedBaseline)? / of(AtomicPolicy::FreeFwd)?)
}

fn litmus_config(model: MemModel, policy: AtomicPolicy) -> fa_sim::MachineConfig {
    let mut cfg = icelake_like().with_check(CheckMode::Tso).with_model(model);
    cfg.core.policy = policy;
    cfg
}

impl Gallery {
    fn pass(&self, engine: Engine, max_cycles: u64) -> Pass {
        let start = Instant::now();
        let mut meter = Meter::default();
        let mut p = Pass::default();
        let mut ratios = Vec::new();
        for (test, model) in &self.tests {
            let t0 = Instant::now();
            let allowed = test.allowed_outcomes_under(*model);
            p.timers.enumerate += t0.elapsed();
            p.counters.outcomes += allowed.len() as u64;
            let threads = test.threads.len();
            for offs in &self.offsets {
                let mut cycles = Vec::new();
                for policy in AtomicPolicy::ALL {
                    let t0 = Instant::now();
                    let programs = test.to_programs();
                    let guest = GuestMem::new(LITMUS_MEM);
                    p.timers.build += t0.elapsed();
                    p.attempted += 1;
                    let cfg = litmus_config(*model, policy);
                    let outcome = match simulate(
                        engine,
                        &cfg,
                        programs,
                        guest,
                        offs[..threads].to_vec(),
                        max_cycles,
                        &mut p.timers,
                    ) {
                        Ok((r, fin)) => {
                            let got: Vec<u64> = (0..test.num_outs() as u64)
                                .map(|s| fin.guest_mem().load(LITMUS_OUT_BASE + s * 64))
                                .collect();
                            p.timers.retire(fin);
                            if allowed.contains(&got) {
                                Ok((r, got))
                            } else {
                                Err(format!(
                                    "outcome {got:?} forbidden by the {} enumerator",
                                    model.name()
                                ))
                            }
                        }
                        Err(e) => Err(e),
                    };
                    match outcome {
                        Ok((r, got)) => {
                            cycles.push((policy, r.cycles));
                            p.record(&r, &got);
                        }
                        Err(e) => p.fail(format!(
                            "{} {} offsets {offs:?}: {e}",
                            test.name,
                            policy.label()
                        )),
                    }
                    meter.tick();
                }
                ratios.extend(baseline_over_fwd(&cycles));
            }
        }
        let t0 = Instant::now();
        let report = fuzz_litmus(&tiny_machine(), &self.fuzz);
        p.timers.fuzz += t0.elapsed();
        p.attempted += report.runs;
        for f in &report.failures {
            p.fail(format!(
                "fuzz {}",
                f.to_string().lines().next().unwrap_or_default()
            ));
        }
        p.run_digests.push(fnv1a(
            format!(
                "fuzz {} {} {}",
                report.cases, report.runs, report.distinct_outcomes
            )
            .as_bytes(),
        ));
        p.speedup = geomean(&ratios).unwrap_or(f64::NAN);
        p.wall = start.elapsed().saturating_sub(meter.spent());
        p.speed = meter.finish();
        p
    }
}

/// Simulated counters summed over a pass's runs, for the per-layer report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Core cycles per CPI-stack leaf.
    pub cpi: [u64; CPI_LEAVES],
    pub uops: u64,
    pub squashed_uops: u64,
    pub atomics: u64,
    pub atomic_exec_cycles: u64,
    pub atomic_drain_cycles: u64,
    pub fences_omitted: u64,
    pub aq_full_stalls: u64,
    pub l1_hits: u64,
    /// Demand reads, wherever served.
    pub demand_reads: u64,
    pub remote_transfers: u64,
    pub parked_on_lock: u64,
    pub fill_stalled: u64,
    pub dir_parked_busy: u64,
    pub dir_alloc_waits: u64,
    pub noc_messages: u64,
    /// Worst consecutive retry runs at the dir-alloc, cache-fill and LSQ
    /// sites (`MemStats::progress` keeps maxima, not totals), summed over
    /// runs.
    pub progress_retries: u64,
    /// Outcomes the reference enumerators allow, summed over tests.
    pub outcomes: u64,
}

impl Counters {
    fn add(&mut self, r: &RunResult) {
        for c in &r.per_core {
            for (acc, v) in self.cpi.iter_mut().zip(c.cpi.leaves) {
                *acc += v;
            }
            self.uops += c.uops;
            self.squashed_uops += c.squashed_uops;
            self.atomics += c.atomics;
            self.atomic_exec_cycles += c.atomic_exec_cycles;
            self.atomic_drain_cycles += c.atomic_drain_cycles;
            self.fences_omitted += c.fences_omitted;
            self.aq_full_stalls += c.aq_full_stalls;
        }
        for c in &r.mem.cores {
            self.l1_hits += c.l1_hits;
            self.demand_reads +=
                c.l1_hits + c.l2_hits + c.llc_hits + c.mem_accesses + c.remote_transfers;
            self.remote_transfers += c.remote_transfers;
            self.parked_on_lock += c.parked_on_lock;
            self.fill_stalled += c.fill_stalled_all_locked;
        }
        self.dir_parked_busy += r.mem.dir.parked_busy;
        self.dir_alloc_waits += r.mem.dir.alloc_waits;
        self.noc_messages += r.mem.messages;
        let pg = &r.mem.progress;
        self.progress_retries +=
            pg.dir_alloc_attempts_max + pg.fill_attempts_max + pg.lsq_attempts_max;
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host wall time of the whole pass, the host-speed samples taken
    /// during it left out.
    pub wall: Duration,
    /// The host's speed over the pass, which its host times are scaled
    /// by.
    pub speed: Speed,
    /// Host time per layer.
    pub timers: Timers,
    /// Committed instructions of the pass's timed runs.
    pub instructions: u64,
    /// Simulated runs attempted (fuzz-campaign runs included).
    pub attempted: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    /// Simulated cycles summed over the pass's runs.
    pub sim_cycles: u64,
    /// Geometric mean of FencedBaseline over FreeFwd cycles.
    pub speedup: f64,
    /// Hash of each run's simulated statistics, in run order.
    pub run_digests: Vec<u64>,
    /// Simulated per-layer counters.
    pub counters: Counters,
}

impl Pass {
    fn record(&mut self, r: &RunResult, outcome: &[u64]) {
        self.instructions += r.instructions();
        self.sim_cycles += r.cycles;
        self.counters.add(r);
        let text = format!("{:?} {:?} {:?} {:?}", r.cycles, r.per_core, r.mem, outcome);
        self.run_digests.push(fnv1a(text.as_bytes()));
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
        self.run_digests.push(0);
    }

    /// Hash over every run's simulated statistics.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .run_digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn litmus_outcomes_are_read_where_the_harness_reads_them() {
        let test = LitmusTest::sb_rmw_mixed();
        let cfg = litmus_config(MemModel::Tso, AtomicPolicy::FreeFwd);
        let offsets = vec![0, 40];
        let want = test
            .run_checked(&cfg, &offsets, LITMUS_MAX_CYCLES)
            .expect("runs");
        let mut t = Timers::default();
        let (_, fin) = simulate(
            Engine::Machine,
            &cfg,
            test.to_programs(),
            GuestMem::new(LITMUS_MEM),
            offsets,
            LITMUS_MAX_CYCLES,
            &mut t,
        )
        .expect("runs");
        let got: Vec<u64> = (0..test.num_outs() as u64)
            .map(|s| fin.guest_mem().load(LITMUS_OUT_BASE + s * 64))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn the_seed_drives_inputs_and_unknown_workloads_are_refused() {
        assert!(Bench::new("no-such-workload", 1).is_none());
        let offsets = |seed| match Bench::new("litmus-conformance", seed) {
            Some(Bench::Gallery(g)) => (g.offsets, g.fuzz.seed),
            _ => panic!("litmus-conformance is a gallery"),
        };
        assert_eq!(offsets(7), offsets(7));
        assert_ne!(offsets(7), offsets(8));
        match Bench::new("atomic-grid", 5) {
            Some(Bench::Grid(g)) => assert_eq!((g.params.seed, g.meth.seed), (5, 5)),
            _ => panic!("atomic-grid is a grid"),
        }
    }
}

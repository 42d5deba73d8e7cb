//! Running one simulation, untraced through `Machine`, or traced through
//! the benchmark's own copy of the machine's cycle loop.
//!
//! The traced loop is built only from public `MemorySystem` and `Core`
//! calls and mirrors `Machine::new`, `Machine::tick` and `Machine::run`
//! (idle-skip and fast-forward included), so each layer's host time can be
//! taken from outside the program. It must reproduce `Machine::run`'s
//! `RunResult` exactly; the benchmark compares every traced run with its
//! untraced twin.

use fa_core::Core;
use fa_isa::interp::GuestMem;
use fa_isa::Program;
use fa_mem::{CoreId, MemorySystem};
use fa_sim::{axiom, CheckMode, Execution, Machine, MachineConfig, RunResult};
use std::time::{Duration, Instant};

/// How a simulation is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `Machine::new` + `Machine::run`, with no timer inside the run.
    Machine,
    /// The benchmark's cycle loop, timing every call into each layer.
    Traced,
}

/// Host time spent in each layer over the simulations of one pass.
#[derive(Clone, Debug, Default)]
pub struct Timers {
    /// Kernel or litmus program build through the assembler (`workloads`).
    pub build: Duration,
    /// `Machine::new` (untraced).
    pub machine_new: Duration,
    /// `MemorySystem::new` (traced), and its calls.
    pub mem_new: Duration,
    pub mem_news: u64,
    /// `Core::new` (traced), and its calls.
    pub core_new: Duration,
    pub core_news: u64,
    /// Dropping finished machines (their memory systems' arrays, mostly),
    /// and how many.
    pub teardown: Duration,
    pub teardowns: u64,
    /// Each `Machine::run` call, or each traced cycle loop (checker
    /// excluded in the traced case).
    pub runs: Vec<Duration>,
    /// When each of `runs` started.
    pub run_starts: Vec<Instant>,
    /// `MemorySystem::tick` (traced), and its calls.
    pub mem_tick: Duration,
    pub mem_ticks: u64,
    /// `Core::tick` (traced), and its calls.
    pub core_tick: Duration,
    pub core_ticks: u64,
    /// The axiomatic checker (traced), and the data events it checked.
    pub check: Duration,
    pub check_events: u64,
    /// Reference outcome enumeration (`LitmusTest::allowed_outcomes_under`).
    pub enumerate: Duration,
    /// The fuzz campaign (`fuzz_litmus`).
    pub fuzz: Duration,
}

impl Timers {
    /// Set-up time: program build plus machine construction.
    pub fn setup(&self) -> Duration {
        self.build + self.machine_new + self.mem_new + self.core_new
    }

    /// Total host time inside the run loops.
    pub fn run_total(&self) -> Duration {
        self.runs.iter().sum()
    }

    /// Host time of the traced loops outside the two tick calls: cycle
    /// bookkeeping, idle-skip and fast-forward.
    pub fn loop_self(&self) -> Duration {
        self.run_total()
            .saturating_sub(self.mem_tick + self.core_tick)
    }

    /// Host time attributed to a named layer.
    pub fn attributed(&self) -> Duration {
        self.setup() + self.teardown + self.run_total() + self.check + self.enumerate + self.fuzz
    }

    /// Drops a finished simulation, timing it as teardown.
    pub fn retire(&mut self, fin: Finished) {
        let t0 = Instant::now();
        drop(fin);
        self.teardown += t0.elapsed();
        self.teardowns += 1;
    }
}

/// A finished simulation, kept alive so its guest memory can be checked.
pub enum Finished {
    /// An untraced machine.
    Machine(Box<Machine>),
    /// The traced loop's memory system and cores.
    Traced(Box<MemorySystem>, Vec<Core>),
}

impl Finished {
    /// Final guest memory.
    pub fn guest_mem(&self) -> &GuestMem {
        match self {
            Finished::Machine(m) => m.guest_mem(),
            Finished::Traced(mem, _) => mem.backing(),
        }
    }
}

/// Runs `programs` over `guest` to quiescence with per-core start
/// `offsets` (one per program), failing after `max_cycles`.
///
/// # Errors
///
/// A description of the failure: a run error, timeout or checker
/// violation.
pub fn simulate(
    engine: Engine,
    cfg: &MachineConfig,
    programs: Vec<Program>,
    guest: GuestMem,
    offsets: Vec<u64>,
    max_cycles: u64,
    t: &mut Timers,
) -> Result<(RunResult, Finished), String> {
    match engine {
        Engine::Machine => {
            let t0 = Instant::now();
            let mut m = Machine::new(cfg.clone(), programs, guest);
            t.machine_new += t0.elapsed();
            m.set_start_offsets(offsets);
            let t0 = Instant::now();
            let r = m.run(max_cycles);
            t.runs.push(t0.elapsed());
            t.run_starts.push(t0);
            let r = r.map_err(|e| first_line(&e.to_string()))?;
            Ok((r, Finished::Machine(Box::new(m))))
        }
        Engine::Traced => {
            let (r, mem, cores) = traced_run(cfg, programs, guest, &offsets, max_cycles, t)?;
            Ok((r, Finished::Traced(Box::new(mem), cores)))
        }
    }
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or_default().to_string()
}

/// Whether ticking `c` this cycle would change nothing but idle
/// accounting (`Machine::core_skippable`).
fn skippable(c: &Core, mem: &MemorySystem, now: u64) -> bool {
    c.idle_skippable() && !mem.has_core_traffic(c.id()) && c.wake_at().is_none_or(|w| now < w)
}

/// `Machine::try_fast_forward`: when every core is quiescent-waiting and
/// the memory system is a pure clock, jump to one cycle before the next
/// thing that can happen.
fn fast_forward(
    mem: &mut MemorySystem,
    cores: &mut [Core],
    offsets: &[u64],
    now: &mut u64,
    max_cycles: u64,
) {
    if !mem.fast_forwardable() {
        return;
    }
    let mut target = max_cycles;
    for (i, c) in cores.iter().enumerate() {
        if *now <= offsets[i] {
            target = target.min(offsets[i] + 1);
        } else if skippable(c, mem, *now) {
            if let Some(w) = c.wake_at() {
                target = target.min(w);
            }
        } else {
            return;
        }
    }
    if let Some(at) = mem.next_event_at() {
        target = target.min(at);
    }
    if target <= *now + 1 {
        return;
    }
    let skipped = target - 1 - *now;
    mem.skip_to(target - 1);
    for (i, c) in cores.iter_mut().enumerate() {
        if *now > offsets[i] && c.sleeping() {
            c.credit_idle_cycles(skipped);
        }
    }
    *now = target - 1;
}

/// The traced twin of `Machine::new` + `Machine::run` (audit sweeps and
/// the progress watchdogs left out: they only ever turn a run into an
/// error, and the cycle budget still bounds a wedged run).
fn traced_run(
    cfg: &MachineConfig,
    programs: Vec<Program>,
    guest: GuestMem,
    offsets: &[u64],
    max_cycles: u64,
    t: &mut Timers,
) -> Result<(RunResult, MemorySystem, Vec<Core>), String> {
    let mut cfg = cfg.clone();
    if cfg.core.check.on() || cfg.mem.check.on() {
        cfg = cfg.with_check(CheckMode::Tso);
    }
    let n = programs.len();
    assert_eq!(offsets.len(), n, "one start offset per core");
    let mem_bytes = guest.size();

    let t0 = Instant::now();
    let mut mem = MemorySystem::new(cfg.mem.clone(), n, guest);
    t.mem_new += t0.elapsed();
    t.mem_news += 1;
    let t0 = Instant::now();
    let mut cores: Vec<Core> = programs
        .into_iter()
        .enumerate()
        .map(|(i, p)| Core::new(CoreId(i as u16), cfg.core.clone(), p, mem_bytes))
        .collect();
    t.core_new += t0.elapsed();
    t.core_news += n as u64;

    let audit_on = mem.config().audit.enabled;
    let start = Instant::now();
    let mut now = 0u64;
    let mut quiesced = false;
    while now < max_cycles {
        if !audit_on {
            fast_forward(&mut mem, &mut cores, offsets, &mut now, max_cycles);
        }
        now += 1;
        let t0 = Instant::now();
        mem.tick();
        t.mem_tick += t0.elapsed();
        t.mem_ticks += 1;
        for c in cores.iter_mut() {
            if now <= offsets[c.id().index()] {
                continue;
            }
            if skippable(c, &mem, now) {
                if c.sleeping() {
                    c.credit_idle_cycles(1);
                }
                continue;
            }
            let t0 = Instant::now();
            c.tick(now, &mut mem);
            t.core_tick += t0.elapsed();
            t.core_ticks += 1;
        }
        if cores.iter().all(|c| c.halted() && c.sb_len() == 0) {
            quiesced = true;
            break;
        }
    }
    t.runs.push(start.elapsed());
    t.run_starts.push(start);
    if !quiesced {
        let halted = cores.iter().filter(|c| c.halted()).count();
        return Err(format!(
            "machine did not quiesce within {max_cycles} cycles ({halted}/{n} cores halted)"
        ));
    }
    for c in cores.iter_mut() {
        c.finalize_stats();
    }
    if cores.iter().any(|c| !c.data_events().is_empty()) {
        let x = Execution {
            cores: cores.iter().map(|c| c.data_events().to_vec()).collect(),
            ser: mem.ser_events().to_vec(),
        };
        let t0 = Instant::now();
        let verdict = axiom::check_model(&x, cfg.core.model);
        t.check += t0.elapsed();
        t.check_events += x.events() as u64;
        verdict.map_err(|v| v.to_string())?;
    }
    let r = RunResult {
        cycles: now,
        per_core: cores.iter().map(|c| c.stats.clone()).collect(),
        mem: mem.stats(),
    };
    Ok((r, mem, cores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_core::AtomicPolicy;
    use fa_sim::{icelake_like, LitmusTest};
    use fa_workloads::{suite, WorkloadParams};

    /// Runs one program set both ways and asserts identical results.
    fn assert_traced_matches(
        cfg: &MachineConfig,
        programs: Vec<Program>,
        guest: GuestMem,
        offsets: Vec<u64>,
    ) {
        let mut t = Timers::default();
        let (a, fa) = simulate(
            Engine::Machine,
            cfg,
            programs.clone(),
            guest.clone(),
            offsets.clone(),
            50_000_000,
            &mut t,
        )
        .expect("untraced run quiesces");
        let (b, fb) = simulate(
            Engine::Traced,
            cfg,
            programs,
            guest,
            offsets,
            50_000_000,
            &mut t,
        )
        .expect("traced run quiesces");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.mem, b.mem);
        assert_eq!(fa.guest_mem(), fb.guest_mem());
        assert!(t.core_ticks > 0 && t.mem_ticks > 0 && t.mem_news == 1);
    }

    #[test]
    fn traced_loop_equals_machine_run_on_a_kernel() {
        // TATP sleeps in MonitorWait, and the late start offset leaves
        // spans with every core quiescent: idle-skip and fast-forward
        // both run.
        let w = suite::by_name("TATP")
            .expect("suite kernel")
            .build(&WorkloadParams {
                cores: 2,
                scale: 0.02,
                seed: 3,
            });
        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        assert_traced_matches(&cfg, w.programs, w.mem, vec![0, 3_000]);
    }

    #[test]
    fn traced_loop_equals_machine_run_with_the_checker_armed() {
        let test = LitmusTest::sb_rmws();
        let cfg = icelake_like().with_check(CheckMode::Tso);
        let n = test.threads.len();
        let mut t = Timers::default();
        simulate(
            Engine::Traced,
            &cfg,
            test.to_programs(),
            GuestMem::new(1 << 16),
            vec![0; n],
            1_000_000,
            &mut t,
        )
        .expect("checked run passes");
        assert!(t.check_events > 0, "the checker saw the execution");
        assert_traced_matches(
            &cfg,
            test.to_programs(),
            GuestMem::new(1 << 16),
            vec![0, 40],
        );
    }

    #[test]
    fn too_small_a_budget_is_an_error_both_ways() {
        let test = LitmusTest::mp();
        let cfg = icelake_like();
        let mut t = Timers::default();
        for engine in [Engine::Machine, Engine::Traced] {
            let r = simulate(
                engine,
                &cfg,
                test.to_programs(),
                GuestMem::new(1 << 16),
                vec![0, 0],
                5,
                &mut t,
            );
            assert!(r.is_err(), "{engine:?}");
        }
    }
}
